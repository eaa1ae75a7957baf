"""Shared workload builders for the Table 1 experiments.

Each builder returns a dataset + query family sized for laptop-scale runs
with *genuinely private* parameters: the sample size ``n`` is chosen large
enough that the sparse-vector and oracle noise are small relative to the
accuracy targets (cheap here, because all mechanism-side computation is
histogram-based and independent of ``n``).

:func:`large_universe_workload` is the exception to "laptop-scale": it
builds a linear-query workload over a universe big enough (``|X| ~
10^5``-``10^6``) that the batched evaluation engine's loss-matrix
layout (:mod:`repro.engine`) carries the query-side cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.builders import interval_grid
from repro.data.dataset import Dataset
from repro.data.synthetic import (
    make_classification_dataset,
    make_regression_dataset,
)
from repro.data.universe import Universe
from repro.erm.oracle import SingleQueryOracle
from repro.core.pmw_cm import PrivateMWConvex
from repro.core.accuracy import answer_error
from repro.losses.base import LossFunction
from repro.losses.linear import LinearQuery
from repro.optimize.minimize import minimize_loss
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Workload:
    """A dataset plus a loss family and the family's scale bound."""

    dataset: Dataset
    universe: Universe
    losses: list
    scale: float
    description: str


def classification_workload(n: int, d: int, k: int, family_builder, *,
                            universe_size: int = 200, rng=0,
                            description: str = "") -> Workload:
    """Classification data + a ``family_builder(universe, k, rng)`` family."""
    task = make_classification_dataset(n=n, d=d, universe_size=universe_size,
                                       rng=rng)
    losses = family_builder(task.universe, k, rng=rng)
    scale = max(loss.scale_bound() for loss in losses)
    return Workload(dataset=task.dataset, universe=task.universe,
                    losses=losses, scale=scale,
                    description=description or f"classification(n={n}, d={d})")


def regression_workload(n: int, d: int, k: int, family_builder, *,
                        universe_size: int = 200, rng=0,
                        description: str = "") -> Workload:
    """Regression data + a loss family."""
    task = make_regression_dataset(n=n, d=d, universe_size=universe_size,
                                   rng=rng)
    losses = family_builder(task.universe, k, rng=rng)
    scale = max(loss.scale_bound() for loss in losses)
    return Workload(dataset=task.dataset, universe=task.universe,
                    losses=losses, scale=scale,
                    description=description or f"regression(n={n}, d={d})")


@dataclass(frozen=True)
class LinearWorkload:
    """A linear-query workload: dataset + query tables over one universe."""

    dataset: Dataset
    universe: Universe
    queries: list
    description: str


def large_universe_workload(universe_size: int = 200_000, k: int = 64,
                            n: int = 100_000, *,
                            interval_scale: float = 0.35, rng=0,
                            description: str = "") -> LinearWorkload:
    """A large-universe interval-query workload.

    Builds a 1-D grid universe of ``universe_size`` points on ``[-1, 1]``,
    a bell-shaped dataset of ``n`` rows over it, and ``k`` random interval
    (range-counting) queries — the classic PMW workload shape, at a
    universe size where the engine's loss-matrix layout earns its keep.
    Everything is built vectorized, so the construction itself stays
    cheap at ``universe_size >= 10^6`` (memory is dominated by the ``k ×
    universe_size`` query tables).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_positive(interval_scale, "interval_scale")
    universe = interval_grid(universe_size)
    generator = as_generator(rng)
    raw = np.clip(generator.normal(0.0, interval_scale, size=n), -1.0, 1.0)
    indices = np.rint((raw + 1.0) / 2.0 * (universe_size - 1)).astype(int)
    dataset = Dataset(universe, indices)
    grid = universe.points[:, 0]
    lows = generator.uniform(-1.0, 1.0, size=k)
    highs = np.minimum(lows + generator.uniform(0.05, 1.0, size=k), 1.0)
    # One contiguous (k, |X|) table matrix, frozen so each query keeps its
    # row as a view and the engine's loss-matrix layout is zero-copy for
    # this family (see repro.engine.kernels.stack_tables; LinearQuery
    # only aliases read-only buffers).
    tables = ((grid[None, :] >= lows[:, None])
              & (grid[None, :] <= highs[:, None])).astype(float)
    tables.setflags(write=False)
    queries = [
        LinearQuery(tables[j], name=f"interval-{j}") for j in range(k)
    ]
    return LinearWorkload(
        dataset=dataset, universe=universe, queries=queries,
        description=description or f"intervals(|X|={universe_size}, k={k})",
    )


def pmw_max_error(workload: Workload, oracle: SingleQueryOracle, *,
                  alpha: float, epsilon: float = 1.0, delta: float = 1e-6,
                  max_updates: int | None = 30, solver_steps: int = 200,
                  rng=None) -> tuple[float, int]:
    """Run PMW-CM over the whole workload; return (max excess risk, #updates).

    Uses ``on_halt="hypothesis"`` so an exhausted update budget degrades
    gracefully instead of aborting the measurement (the halt is reflected
    in higher measured error, which is the honest outcome).
    """
    mechanism = PrivateMWConvex(
        workload.dataset, oracle, scale=workload.scale, alpha=alpha,
        epsilon=epsilon, delta=delta, schedule="calibrated",
        max_updates=max_updates, solver_steps=solver_steps, rng=rng,
    )
    answers = mechanism.answer_all(workload.losses, on_halt="hypothesis")
    data = workload.dataset.histogram()
    worst = 0.0
    for loss, answer in zip(workload.losses, answers):
        worst = max(worst, answer_error(loss, data, answer.theta,
                                        solver_steps=solver_steps))
    return worst, mechanism.updates_performed


def family_max_error(losses, data, thetas, *, solver_steps: int = 200) -> float:
    """Max excess risk of precomputed answers over a family."""
    worst = 0.0
    for loss, theta in zip(losses, thetas):
        worst = max(worst, answer_error(loss, data, theta,
                                        solver_steps=solver_steps))
    return worst


def single_query_excess(loss: LossFunction, dataset: Dataset,
                        oracle: SingleQueryOracle, *, rng=None,
                        solver_steps: int = 300) -> float:
    """Excess empirical risk of one oracle call (for the E9 sweeps)."""
    histogram = dataset.histogram()
    optimum = minimize_loss(loss, histogram, steps=solver_steps).value
    theta = oracle.answer(loss, dataset, rng=rng)
    return max(0.0, float(loss.loss_on(np.asarray(theta, dtype=float),
                                       histogram)) - optimum)
