"""Shared-minima telemetry: ``solver.memo_hits`` / ``solver.memo_misses``
labelled ``side=data|prior`` on the active tracer's registry."""

from repro.core.pmw_cm import PrivateMWConvex
from repro.data import make_classification_dataset
from repro.engine.memo import MinimaMemo
from repro.erm.oracle import NonPrivateOracle
from repro.losses.families import random_logistic_family
from repro.obs import MetricsRegistry, trace
from repro.optimize.minimize import MinimizeResult

TASK = make_classification_dataset(n=1_000, d=3, universe_size=48, rng=0)


def _counters(registry):
    return {(entry["name"], entry["labels"]["side"]): entry["value"]
            for entry in registry.snapshot()["counters"]
            if entry["name"].startswith("solver.memo")}


def _mechanism(dataset, losses):
    return PrivateMWConvex(
        dataset, NonPrivateOracle(solver_steps=20),
        scale=max(loss.scale_bound() for loss in losses), alpha=0.3,
        epsilon=1.0, delta=1e-6, max_updates=2, solver_steps=20, rng=1)


def test_hits_and_misses_are_counted_per_side():
    dataset = TASK.dataset.copy()
    losses = random_logistic_family(TASK.universe, 3, rng=1)
    registry = MetricsRegistry()
    trace.install(registry=registry)
    try:
        for _ in range(2):
            mechanism = _mechanism(dataset, losses)
            mechanism.prewarm(losses)
            mechanism.answer_from_hypothesis(losses[0])
    finally:
        trace.uninstall()
    assert _counters(registry) == {
        ("solver.memo_misses", "data"): 3,
        ("solver.memo_hits", "data"): 3,
        ("solver.memo_misses", "prior"): 1,
        ("solver.memo_hits", "prior"): 1,
    }


def test_memo_works_with_tracing_off():
    assert trace.active() is None
    memo = MinimaMemo(limit=2)
    assert memo.get(("data", 1, "x")) is None
    memo.put(("data", 1, "x"), MinimizeResult(TASK.universe.points[0], 0.0,
                                              True))
    assert memo.get(("data", 1, "x")).value == 0.0
