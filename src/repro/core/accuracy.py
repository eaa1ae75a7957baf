"""Error definitions of Section 2.2 (Definitions 2.2 and 2.3).

Two notions of error drive the whole mechanism:

- **error of an answer** ``err_l(D, theta) = l_D(theta) - min l_D`` —
  the excess empirical risk of a proposed parameter (Definition 2.2);
- **error of a database** ``err_l(D, D') = l_D(argmin l_{D'}) - min l_D``
  — how badly the minimizer computed on a *hypothesis* ``D'`` performs on
  the *true* data ``D`` (Definition 2.3). This is the sparse-vector query
  ``q_j`` of Figure 3, with sensitivity at most ``3S/n``
  (Section 3.4.2's lemma, reproduced empirically in the E8 benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.histogram import Histogram
from repro.losses.base import LossFunction
from repro.optimize.minimize import MinimizeResult, minimize_loss


@dataclass(frozen=True)
class DatabaseErrorBreakdown:
    """The pieces of one ``err_l(D, D')`` evaluation (for diagnostics)."""

    error: float
    hypothesis_minimizer: np.ndarray
    hypothesis_loss_on_data: float
    optimal_loss_on_data: float
    data_minimizer: np.ndarray

    @classmethod
    def from_parts(cls, data_result: MinimizeResult, theta: np.ndarray,
                   loss_on_data: float) -> "DatabaseErrorBreakdown":
        """The breakdown of ``theta = argmin l_{D'}`` given
        ``l_D(theta)`` and the data-side minimization."""
        return cls(
            error=max(0.0, loss_on_data - data_result.value),
            hypothesis_minimizer=theta,
            hypothesis_loss_on_data=loss_on_data,
            optimal_loss_on_data=float(data_result.value),
            data_minimizer=data_result.theta,
        )


def answer_error(loss: LossFunction, data: Histogram, theta: np.ndarray,
                 *, solver_steps: int = 400,
                 data_optimum: float | None = None) -> float:
    """Definition 2.2: ``err_l(D, theta) = l_D(theta) - min_theta l_D``.

    ``data_optimum`` can be supplied to avoid re-solving ``min l_D`` when
    evaluating many answers against the same data (as the experiment
    harness does). Clamped at zero: tiny negatives only arise from solver
    slack on the optimum.
    """
    if data_optimum is None:
        data_optimum = minimize_loss(loss, data, steps=solver_steps).value
    value = float(loss.loss_on(np.asarray(theta, dtype=float), data))
    return max(0.0, value - float(data_optimum))


def database_error(loss: LossFunction, data: Histogram, hypothesis: Histogram,
                   *, solver_steps: int = 400,
                   data_result: MinimizeResult | None = None,
                   hypothesis_result: MinimizeResult | None = None,
                   ) -> DatabaseErrorBreakdown:
    """Definition 2.3: ``err_l(D, D')`` with its intermediate quantities.

    Returns the full breakdown because the PMW round needs the hypothesis
    minimizer ``theta_hat`` again for the dual-certificate update, and
    tests assert relationships between the parts. ``data_result`` lets
    callers reuse the data-side minimization (it only depends on
    ``(loss, data)``, both fixed across a mechanism's lifetime);
    ``hypothesis_result`` likewise supplies an already-computed
    ``theta_hat`` — e.g. a warm-started solve the caller ran itself.
    """
    if hypothesis_result is None:
        hypothesis_result = minimize_loss(loss, hypothesis,
                                          steps=solver_steps)
    if data_result is None:
        data_result = minimize_loss(loss, data, steps=solver_steps)
    loss_on_data = float(loss.loss_on(hypothesis_result.theta, data))
    return DatabaseErrorBreakdown.from_parts(
        data_result, hypothesis_result.theta, loss_on_data)


def empirical_error_query_sensitivity(loss: LossFunction, data: Histogram,
                                      neighbor: Histogram,
                                      hypothesis: Histogram,
                                      *, solver_steps: int = 400) -> float:
    """Realized ``|err_l(D, D'') - err_l(D', D'')|`` for adjacent ``D ~ D'``.

    Section 3.4.2 proves this is at most ``3S/n``; the privacy benchmark
    (E8) samples adjacent pairs and checks the bound empirically.
    """
    error_d = database_error(loss, data, hypothesis,
                             solver_steps=solver_steps).error
    error_d_prime = database_error(loss, neighbor, hypothesis,
                                   solver_steps=solver_steps).error
    return abs(error_d - error_d_prime)
