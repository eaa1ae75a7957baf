"""Hinge (SVM) and Huber losses.

Hinge is the paper's third motivating example (support vector machines) and
is the canonical *non-differentiable* convex loss: the library follows the
paper's remark that every ``grad`` can be replaced by an arbitrary
subgradient, and the hinge implementation selects one explicitly.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import LossSpecificationError
from repro.losses.glm import GeneralizedLinearLoss
from repro.optimize.projections import Domain
from repro.utils.validation import check_positive


class HingeLoss(GeneralizedLinearLoss):
    """SVM hinge loss ``max(0, 1 - y <theta, R x>)`` with labels in ``{-1,+1}``.

    Subgradient selection: ``-y * x`` on the active branch
    (``y <theta, x> < 1``), ``0`` elsewhere (including the kink itself,
    where ``0`` is a valid subgradient only from the flat side; we pick the
    active-side subgradient at the kink, which is also valid).
    """

    link_derivative_bound = 1.0

    def __init__(self, domain: Domain, rotation: np.ndarray | None = None,
                 name: str = "hinge") -> None:
        super().__init__(domain, rotation=rotation, name=name)
        self.lipschitz_bound = 1.0

    def link(self, margins: np.ndarray, labels: np.ndarray | None) -> np.ndarray:
        self._check_labels(labels)
        return np.maximum(0.0, 1.0 - labels * margins)

    def link_derivative(self, margins: np.ndarray,
                        labels: np.ndarray | None) -> np.ndarray:
        self._check_labels(labels)
        active = labels * margins <= 1.0
        return np.where(active, -labels, 0.0)

    def validate_labels(self, labels: np.ndarray | None) -> None:
        self._check_labels(labels)

    def link_terms(self, margins: np.ndarray, labels: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray]:
        t = labels * margins
        return np.maximum(0.0, 1.0 - t), -labels * (t <= 1.0)

    @staticmethod
    def _check_labels(labels: np.ndarray | None) -> None:
        if labels is None:
            raise LossSpecificationError("hinge loss requires labels")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise LossSpecificationError("hinge loss requires labels in {-1, +1}")


class HuberLoss(GeneralizedLinearLoss):
    """Huber regression loss on the residual ``r = <theta, R x> - y``.

    ``phi(r) = r^2/2`` for ``|r| <= delta``, ``delta(|r| - delta/2)``
    otherwise. Smooth, ``delta``-Lipschitz in the margin, robust to label
    outliers — a standard intermediate between squared and absolute loss.
    """

    def __init__(self, domain: Domain, delta: float = 0.5,
                 rotation: np.ndarray | None = None, name: str = "huber") -> None:
        super().__init__(domain, rotation=rotation, name=name)
        self.delta = check_positive(delta, "delta")
        self.link_derivative_bound = self.delta
        self.lipschitz_bound = self.delta

    def link(self, margins: np.ndarray, labels: np.ndarray | None) -> np.ndarray:
        if labels is None:
            raise LossSpecificationError("huber loss requires labels")
        residuals = margins - labels
        absolute = np.abs(residuals)
        quadratic = 0.5 * residuals * residuals
        linear = self.delta * (absolute - 0.5 * self.delta)
        return np.where(absolute <= self.delta, quadratic, linear)

    def link_derivative(self, margins: np.ndarray,
                        labels: np.ndarray | None) -> np.ndarray:
        if labels is None:
            raise LossSpecificationError("huber loss requires labels")
        return np.clip(margins - labels, -self.delta, self.delta)

    def link_terms(self, margins: np.ndarray, labels: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray]:
        residuals = margins - labels
        absolute = np.abs(residuals)
        values = np.where(absolute <= self.delta, 0.5 * residuals * residuals,
                          self.delta * (absolute - 0.5 * self.delta))
        return values, np.clip(residuals, -self.delta, self.delta)
