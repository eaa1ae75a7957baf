"""Logistic loss (binary classification), the paper's second example.

``l(theta; (x, y)) = log(1 + exp(-y <theta, R x>))`` for labels in
``{-1, +1}``. A GLM with ``|phi'| <= 1``, hence 1-Lipschitz whenever the
(rotated) features lie in the unit ball — the canonical member of the
Theorem 4.3 UGLM family.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import LossSpecificationError
from repro.losses.glm import GeneralizedLinearLoss
from repro.optimize.projections import Domain


class LogisticLoss(GeneralizedLinearLoss):
    """Numerically stable logistic loss over a ``{-1, +1}``-labeled universe."""

    link_derivative_bound = 1.0

    def __init__(self, domain: Domain, rotation: np.ndarray | None = None,
                 name: str = "logistic") -> None:
        super().__init__(domain, rotation=rotation, name=name)
        self.lipschitz_bound = 1.0

    def link(self, margins: np.ndarray, labels: np.ndarray | None) -> np.ndarray:
        self._check_labels(labels)
        return _softplus_negative(labels * margins)

    def link_derivative(self, margins: np.ndarray,
                        labels: np.ndarray | None) -> np.ndarray:
        self._check_labels(labels)
        t = labels * margins
        # d/dz log(1+e^{-yz}) = -y * sigmoid(-yz); sigmoid via stable expit.
        return -labels / (1.0 + np.exp(t))

    def validate_labels(self, labels: np.ndarray | None) -> None:
        self._check_labels(labels)

    def link_terms(self, margins: np.ndarray, labels: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray]:
        t = labels * margins
        return _softplus_negative(t), -labels / (1.0 + np.exp(t))

    @staticmethod
    def _check_labels(labels: np.ndarray | None) -> None:
        if labels is None:
            raise LossSpecificationError("logistic loss requires labels")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise LossSpecificationError(
                "logistic loss requires labels in {-1, +1}"
            )


def _softplus_negative(t: np.ndarray) -> np.ndarray:
    """``log(1 + e^{-t})``, stable for large ``|t|``.

    The ``logaddexp(0, -t)`` split ``max(-t, 0) + log1p(e^{-|t|})``,
    written with the vectorized ``exp``/``log1p`` loops, which run several
    times faster than ``np.logaddexp``.
    """
    return np.log1p(np.exp(-np.abs(t))) + np.maximum(-t, 0.0)
