"""Noisy gradient descent — the BST14 stand-in (Theorems 4.1 and 4.5).

Bassily–Smith–Thakurta's optimal algorithm is noisy stochastic gradient
descent. We implement the full-batch variant: ``T`` projected gradient
steps where each released gradient of the *average* loss has L2 sensitivity
``2L/n`` and is masked with Gaussian noise whose scale is set by advanced
composition (Theorem 3.10) across the ``T`` steps.

This substitution preserves what the paper consumes from BST14:

- **privacy** — per-step Gaussian mechanism + advanced composition is the
  same accounting BST14 uses (minus subsampling amplification, which only
  improves constants);
- **accuracy shape** — excess risk ``O(sqrt(d) * polylog / (n * epsilon))``
  for Lipschitz losses over the unit ball, and the ``1/(sigma n epsilon)``
  improvement for ``sigma``-strongly-convex losses, both verified
  empirically in the oracle benchmarks (E9).
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.dataset import Dataset
from repro.dp.composition import per_round_budget
from repro.dp.mechanisms import gaussian_sigma
from repro.erm.oracle import SingleQueryOracle
from repro.exceptions import LossSpecificationError
from repro.losses.base import LossFunction
from repro.optimize.lockstep import GLMObjectives, glm_family
from repro.utils.rng import as_generator


class NoisyGradientDescentOracle(SingleQueryOracle):
    """DP-ERM by noisy full-batch projected gradient descent.

    Parameters
    ----------
    epsilon, delta:
        Privacy budget for the whole optimization (split over steps by
        advanced composition).
    steps:
        Number of gradient steps ``T``. More steps reduce optimization
        error but increase per-step noise; the default balances the two at
        the moderate ``n`` used in experiments.
    averaging:
        ``"suffix"`` (default) returns the average of the last half of the
        trajectory; ``"last"`` returns the final iterate (better for
        strongly convex losses with the ``1/(sigma t)`` schedule).
    """

    def __init__(self, epsilon: float, delta: float, steps: int = 60,
                 averaging: str = "suffix") -> None:
        super().__init__(epsilon, delta)
        if steps < 1:
            raise LossSpecificationError(f"steps must be >= 1, got {steps}")
        if averaging not in ("suffix", "last"):
            raise LossSpecificationError(
                f"averaging must be 'suffix' or 'last', got {averaging!r}"
            )
        self.steps = int(steps)
        self.averaging = averaging

    def noise_sigma(self, loss: LossFunction, n: int) -> float:
        """Per-step Gaussian noise scale for the gradient release."""
        if loss.lipschitz_bound is None:
            raise LossSpecificationError(
                f"noisy GD requires a Lipschitz bound; {loss.name} declares none"
            )
        per_step = per_round_budget(self.epsilon, max(self.delta, 1e-12),
                                    self.steps)
        sensitivity = 2.0 * loss.lipschitz_bound / n
        return gaussian_sigma(sensitivity, per_step.epsilon,
                              max(per_step.delta, 1e-15))

    def answer(self, loss: LossFunction, dataset: Dataset, rng=None) -> np.ndarray:
        generator = as_generator(rng)
        histogram = dataset.histogram()
        domain = loss.domain
        sigma = self.noise_sigma(loss, dataset.n)
        lipschitz = loss.lipschitz_bound
        diameter = domain.diameter()
        # Step schedule accounts for the noise magnitude: the effective
        # gradient bound is L plus the typical noise norm.
        noise_norm = sigma * math.sqrt(domain.dim)
        effective_lipschitz = lipschitz + noise_norm

        # Fused-link GLMs validate labels once and take each gradient
        # from one margin pass (R Xᵀ(w ⊙ phi'(X Rᵀ theta))); the gradient
        # does not touch the generator, so the noise draws are unchanged.
        if glm_family(loss) is not None:
            gradient_of = GLMObjectives([loss], histogram).gradient
        else:
            def gradient_of(point):
                return loss.gradient_on(point, histogram)

        theta = domain.center()
        total = np.zeros_like(theta)
        count = 0
        for t in range(1, self.steps + 1):
            gradient = gradient_of(theta)
            gradient = gradient + generator.normal(0.0, sigma, size=gradient.shape)
            if loss.strong_convexity > 0.0:
                step = 1.0 / (loss.strong_convexity * t)
            else:
                step = diameter / (effective_lipschitz * math.sqrt(t))
            theta = domain.project(theta - step * gradient)
            if t > self.steps // 2:
                total += theta
                count += 1
        if self.averaging == "last":
            return theta
        return domain.project(total / max(count, 1))
