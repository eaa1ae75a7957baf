"""Generalized linear model losses.

Theorem 4.3's family: ``l(theta; (x, y)) = phi(<theta, x>, y)`` for a convex
scalar link ``phi``. :class:`GeneralizedLinearLoss` implements the shared
machinery (vectorized inner products, chain-rule gradients, optional feature
rotation used to generate large families of *distinct* GLM queries); the
concrete links live in :mod:`repro.losses.squared`,
:mod:`repro.losses.logistic`, and :mod:`repro.losses.hinge`.
"""

from __future__ import annotations

import numpy as np

from repro.data.universe import Universe
from repro.exceptions import LossSpecificationError
from repro.losses.base import LossFunction
from repro.optimize.projections import Domain
from repro.utils.validation import check_finite_array


class GeneralizedLinearLoss(LossFunction):
    """Base class for losses of the form ``phi(<theta, R x>, y)``.

    Parameters
    ----------
    domain:
        The parameter domain ``Theta`` (dimension must match the rotated
        feature dimension).
    rotation:
        Optional matrix ``R`` applied to features before the inner product;
        ``None`` means identity. Distinct rotations give distinct queries
        from the same link, which is how the benchmark families are built
        (each query is still a GLM, now in features ``R x``).
    link_derivative_bound:
        Bound ``c`` on ``|phi'(z, y)|``. Combined with the rotated feature
        norm this yields the Lipschitz bound ``c * max_x ||R x||``.

    Subclasses implement :meth:`link` and :meth:`link_derivative`
    (vectorized over a margin array) and declare whether labels are needed.
    """

    is_glm = True
    requires_labels = True
    link_derivative_bound: float = 1.0

    def __init__(self, domain: Domain, rotation: np.ndarray | None = None,
                 name: str = "glm") -> None:
        super().__init__(domain, name=name)
        if rotation is not None:
            rotation = check_finite_array(rotation, "rotation", ndim=2)
            if rotation.shape[0] != domain.dim:
                raise LossSpecificationError(
                    f"{name}: rotation output dim {rotation.shape[0]} must "
                    f"match domain dim {domain.dim}"
                )
        self.rotation = rotation

    # -- link contract --------------------------------------------------------

    def link(self, margins: np.ndarray, labels: np.ndarray | None) -> np.ndarray:
        """``phi(z, y)`` elementwise over margins ``z``."""
        raise NotImplementedError

    def link_derivative(self, margins: np.ndarray,
                        labels: np.ndarray | None) -> np.ndarray:
        """``d phi / d z`` elementwise (any subgradient selection is fine)."""
        raise NotImplementedError

    def validate_labels(self, labels: np.ndarray | None) -> None:
        """Raise the link's label error, if any, once for a whole solve.

        The lockstep solver (:mod:`repro.optimize.lockstep`) validates
        labels here and then calls the link's ``link_terms(margins,
        labels) -> (phi, phi')``: the same formulas as :meth:`link` and
        :meth:`link_derivative` from one pass over the margins, without
        their per-call label checks.
        """

    # -- LossFunction implementation -------------------------------------------

    def values(self, theta: np.ndarray, universe: Universe) -> np.ndarray:
        theta = self._check_theta(theta)
        features = self._features(universe)
        labels = self._labels(universe)
        return self.link(features @ theta, labels)

    def gradients(self, theta: np.ndarray, universe: Universe) -> np.ndarray:
        theta = self._check_theta(theta)
        features = self._features(universe)
        labels = self._labels(universe)
        slopes = self.link_derivative(features @ theta, labels)
        return slopes[:, None] * features

    # -- helpers -----------------------------------------------------------------

    def check_universe_dim(self, universe: Universe) -> None:
        """Raise the canonical incompatibility error for a wrong universe.

        Shared by the scalar path (:meth:`_features`) and the batched
        engine's moment/margin kernels, so batching never changes which
        exception a caller handles.
        """
        expected = (self.rotation.shape[1] if self.rotation is not None
                    else self.domain.dim)
        if universe.points.shape[1] != expected:
            raise LossSpecificationError(
                f"{self.name}: universe dim {universe.points.shape[1]} "
                f"incompatible with loss dim {self.domain.dim}"
            )

    def _features(self, universe: Universe) -> np.ndarray:
        self.check_universe_dim(universe)
        points = universe.points
        if self.rotation is None:
            return points
        return points @ self.rotation.T

    def _labels(self, universe: Universe) -> np.ndarray | None:
        if self.requires_labels:
            return self._require_labels(universe, self.name)
        return universe.labels

    def effective_lipschitz(self, universe: Universe) -> float:
        """``max_x |phi'| * ||R x||`` — the realized Lipschitz constant."""
        features = self._features(universe)
        max_norm = float(np.max(np.linalg.norm(features, axis=1)))
        return self.link_derivative_bound * max_norm
