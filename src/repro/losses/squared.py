"""Squared loss (linear regression), the paper's opening example.

``l(theta; (x, y)) = c * (<theta, x> - y)^2`` with ``c = 1/4`` by default so
that on the unit ball with ``|y| <= 1`` the loss is 1-Lipschitz
(``|phi'| = 2c|z - y| <= 4c``). The loss is a GLM, and over an L2-ball
domain its dataset minimizer has a closed form via the trust-region
subproblem, which :meth:`SquaredLoss.exact_minimizer` exploits.
"""

from __future__ import annotations

import numpy as np

from repro.backend import backend_of
from repro.data.histogram import Histogram
from repro.losses.glm import GeneralizedLinearLoss
from repro.optimize.exact import minimize_quadratic_over_ball
from repro.optimize.projections import Domain, L2Ball
from repro.utils.validation import check_positive


def weighted_second_moment(features: np.ndarray,
                           weights: np.ndarray) -> np.ndarray:
    """``E[x xᵀ] = Xᵀ diag(w) X`` under the distribution ``w``.

    The single implementation of the squared-family moment math — shared
    by the closed-form minimizers here and by the batched engine's moment
    kernels (:mod:`repro.engine.kernels`), so the two paths cannot drift.
    """
    return (features * weights[:, None]).T @ features


def weighted_cross_moment(features: np.ndarray, weights: np.ndarray,
                          labels: np.ndarray) -> np.ndarray:
    """``E[y x] = Xᵀ (w ⊙ y)`` under the distribution ``w``."""
    return features.T @ (weights * labels)


class SquaredLoss(GeneralizedLinearLoss):
    """Scaled squared loss ``c (<theta, R x> - y)^2`` over a labeled universe."""

    def __init__(self, domain: Domain, rotation: np.ndarray | None = None,
                 normalization: float = 0.25, name: str = "squared") -> None:
        super().__init__(domain, rotation=rotation, name=name)
        self.normalization = check_positive(normalization, "normalization")
        # |phi'| = 2c|z - y| <= 2c * (max|z| + max|y|); with unit-ball theta,
        # unit-norm rotated features and |y| <= 1 this is 4c.
        self.link_derivative_bound = 4.0 * self.normalization
        self.lipschitz_bound = self.link_derivative_bound

    def link(self, margins: np.ndarray, labels: np.ndarray | None) -> np.ndarray:
        residuals = margins - labels
        return self.normalization * residuals * residuals

    def link_derivative(self, margins: np.ndarray,
                        labels: np.ndarray | None) -> np.ndarray:
        return 2.0 * self.normalization * (margins - labels)

    def link_terms(self, margins: np.ndarray, labels: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray]:
        residuals = margins - labels
        return (self.normalization * residuals * residuals,
                2.0 * self.normalization * residuals)

    def exact_minimizer(self, histogram: Histogram) -> np.ndarray | None:
        """Closed-form ridge-free least squares over an L2-ball domain.

        The objective is ``c * (theta' M theta - 2 v' theta + const)`` with
        ``M = E[x x']`` and ``v = E[y x]`` under the histogram, a PSD
        quadratic solvable exactly over the ball.
        """
        if not isinstance(self.domain, L2Ball):
            return None
        universe = histogram.universe
        self.check_universe_dim(universe)
        if universe.labels is None:
            return None
        backend = backend_of(histogram)
        return self.closed_form(
            backend.second_moment(universe.points, histogram.weights),
            backend.cross_moment(universe.points, histogram.weights,
                                 universe.labels))[0]

    def closed_form(self, second: np.ndarray, cross: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(theta, R M Rᵀ, R v)`` from the moments ``M = E[x xᵀ]`` and
        ``v = E[y x]`` of the raw universe points: the unprojected
        minimizer over the ball, and the rotated moments it solves.

        The one routine both :meth:`exact_minimizer` and the batched
        engine (one moment pass per batch) solve with, so a minimum does
        not depend on the batch it was solved in.
        """
        if self.rotation is not None:
            second = self.rotation @ second @ self.rotation.T
            cross = self.rotation @ cross
        c = self.normalization
        theta = minimize_quadratic_over_ball(2.0 * c * second,
                                             -2.0 * c * cross, self.domain)
        return theta, second, cross
