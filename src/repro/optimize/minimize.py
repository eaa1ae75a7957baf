"""Dispatching solver for CM queries on a histogram.

``minimize_loss(loss, histogram)`` computes the (non-private) answer
``q_l(D) = argmin_{theta in Theta} l(theta; D)`` of Section 2.2. Dispatch
order:

1. the loss's own ``exact_minimizer`` (closed form), if it provides one;
2. for the squared, logistic, hinge and Huber GLMs over an L2 ball, the
   lockstep solver (:mod:`repro.optimize.lockstep`) at width 1;
3. otherwise projected subgradient descent with a step schedule driven by
   the loss's declared Lipschitz / strong-convexity traits.

Steps 2 and 3 run the same iteration; the lockstep solver validates once
and evaluates value and gradient from one margin pass per step.

The result records the achieved objective so callers can compute the error
quantities of Definitions 2.2 and 2.3 without re-evaluating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.histogram import Histogram
from repro.optimize.gradient_descent import projected_gradient_descent
from repro.optimize.lockstep import lockstep_eligible, lockstep_minimize


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of one convex minimization."""

    theta: np.ndarray
    value: float
    exact: bool

    def __iter__(self):
        yield self.theta
        yield self.value


def minimize_loss(loss, histogram: Histogram, *, steps: int = 400,
                  start: np.ndarray | None = None) -> MinimizeResult:
    """Minimize ``theta -> loss.loss_on(theta, histogram)`` over the domain.

    Parameters
    ----------
    loss:
        A :class:`repro.losses.base.LossFunction`.
    histogram:
        The (public or private — privacy is the caller's concern) data
        distribution defining the objective.
    steps:
        Iteration budget for the gradient solver when no closed form exists.
    start:
        Optional warm start.
    """
    exact_theta = loss.exact_minimizer(histogram)
    if exact_theta is not None:
        theta = loss.domain.project(np.asarray(exact_theta, dtype=float))
        return MinimizeResult(theta, float(loss.loss_on(theta, histogram)), True)
    if lockstep_eligible(loss):
        return lockstep_minimize([loss], histogram, steps=steps,
                                 starts=[start])[0]

    lipschitz = loss.lipschitz_bound if loss.lipschitz_bound else 1.0
    theta = projected_gradient_descent(
        lambda point: loss.gradient_on(point, histogram),
        loss.domain,
        steps=steps,
        lipschitz=lipschitz,
        strong_convexity=loss.strong_convexity,
        start=start,
        objective=lambda point: loss.loss_on(point, histogram),
    )
    return MinimizeResult(theta, float(loss.loss_on(theta, histogram)), False)
