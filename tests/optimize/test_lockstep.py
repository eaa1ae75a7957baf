"""Unit tests for the lockstep GLM solver: validation, memory, telemetry."""

import tracemalloc

import numpy as np
import pytest

from repro.data import make_classification_dataset
from repro.data.histogram import Histogram
from repro.data.universe import Universe
from repro.exceptions import OptimizationError, ValidationError
from repro.losses.families import random_hinge_family, random_logistic_family
from repro.losses.logistic import LogisticLoss
from repro.obs import MetricsRegistry, trace
from repro.optimize.lockstep import GLMObjectives, lockstep_minimize
from repro.optimize.minimize import minimize_loss
from repro.optimize.projections import L2Ball

TASK = make_classification_dataset(n=500, d=3, universe_size=30, rng=1)


def test_labels_are_validated_once_per_solve(monkeypatch):
    calls = []
    original = LogisticLoss._check_labels

    def counting(labels):
        calls.append(1)
        return original(labels)

    monkeypatch.setattr(LogisticLoss, "_check_labels",
                        staticmethod(counting))
    losses = random_logistic_family(TASK.universe, 4, rng=2)
    lockstep_minimize(losses, TASK.dataset.histogram(), steps=50)
    assert len(calls) == 1
    calls.clear()
    minimize_loss(losses[0], TASK.dataset.histogram(), steps=50)
    assert len(calls) == 1


def test_budget_validation_matches_the_scalar_solver():
    loss = random_logistic_family(TASK.universe, 1, rng=3)[0]
    histogram = TASK.dataset.histogram()
    with pytest.raises(OptimizationError):
        lockstep_minimize([loss], histogram, steps=0)
    with pytest.raises(OptimizationError):
        minimize_loss(loss, histogram, steps=0)
    with pytest.raises(ValidationError):
        lockstep_minimize([loss, loss], histogram, steps=[5])


def test_empty_batch_and_mixed_parameter_dims():
    histogram = TASK.dataset.histogram()
    assert lockstep_minimize([], histogram) == []
    dim = TASK.universe.dim
    narrow = LogisticLoss(L2Ball(dim - 1),
                          rotation=np.eye(dim)[: dim - 1])
    full = LogisticLoss(L2Ball(dim))
    both = lockstep_minimize([narrow, full], histogram, steps=40)
    assert [r.theta.shape for r in both] == [(dim - 1,), (dim,)]
    for loss, result in zip([narrow, full], both):
        alone = lockstep_minimize([loss], histogram, steps=40)[0]
        np.testing.assert_array_equal(alone.theta, result.theta)


def test_non_finite_gradient_raises():
    from repro.optimize.lockstep import _run

    loss = random_logistic_family(TASK.universe, 1, rng=4)[0]
    objectives = GLMObjectives([loss], TASK.dataset.histogram())
    objectives._weights = np.full(TASK.universe.size, np.inf)
    with pytest.raises(OptimizationError), np.errstate(invalid="ignore"):
        _run(objectives, np.zeros((1, TASK.universe.dim)), np.array([3]),
             [loss])


def test_telemetry_is_recorded_per_call_not_per_step():
    registry = MetricsRegistry()
    trace.install(registry=registry)
    try:
        losses = (random_logistic_family(TASK.universe, 3, rng=5)
                  + random_hinge_family(TASK.universe, 2, rng=6))
        lockstep_minimize(losses, TASK.dataset.histogram(), steps=30)
        lockstep_minimize(losses[:1], TASK.dataset.histogram(), steps=30)
    finally:
        trace.uninstall()
    state = registry.snapshot()
    counters = {entry["name"]: entry["value"]
                for entry in state["counters"]}
    assert counters["solver.lockstep_solves"] == 6
    assert counters["solver.lockstep_steps"] == 6 * 30
    histograms = {entry["name"]: entry for entry in state["histograms"]}
    assert histograms["span.optimize.lockstep"]["count"] == 2


def test_wide_solve_never_allocates_a_universe_by_width_temporary():
    """|X| = 2e5 and 64 columns: an ``|X| × K`` float64 temporary would
    be 100 MiB; universe-row blocking keeps the peak to a few blocks."""
    size, dim, width = 200_000, 5, 64
    rng = np.random.default_rng(0)
    points = rng.standard_normal((size, dim))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    universe = Universe(points, np.where(rng.random(size) < 0.5, -1.0, 1.0))
    histogram = Histogram(universe, np.full(size, 1.0 / size))
    losses = (random_logistic_family(universe, width // 2, rng=1)
              + random_hinge_family(universe, width // 2, rng=2))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        lockstep_minimize(losses, histogram, steps=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    full = size * width * 8
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert peak < full / 6
