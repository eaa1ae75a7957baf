"""E17 — batched query evaluation: loss matrices, margin matrices, streams.

The `repro.engine` subsystem claims that a whole batch of queries can be
evaluated against a histogram in one vectorized pass per family. This
benchmark measures the claims the engine is gated on:

1. **GLM margin-matrix kernel** — a 64-query logistic batch evaluated via
   one ``|X|×d @ d×B`` matmul vs the per-query scalar loop (asserted
   >= 3x, and batched answers within 1e-10 of scalar);
2. **loss-matrix linear answers** — 64 range queries over a 200k-element
   universe as one matvec vs per-query dot products;
3. **batched data-side minima** — the squared family's closed form via
   one shared moment computation vs per-query exact solves;
4. **end-to-end PMW-CM** — a squared-family stream with and without the
   engine's data-side prewarm;
5. **end-to-end PMW-linear** — a large-universe interval workload through
   the segment-batched `answer_all` vs the per-query `answer()` loop.

Run standalone (``python benchmarks/bench_batch_engine.py``) or via
pytest (``pytest benchmarks/bench_batch_engine.py -s``).
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import pytest

from repro.core.pmw_linear import PrivateMWLinear
from repro.data import make_classification_dataset
from repro.engine import batch_data_minima, compile_batch
from repro.experiments.report import ExperimentReport
from repro.experiments.workloads import large_universe_workload
from repro.losses.families import (
    random_logistic_family,
    random_squared_family,
)
from repro.optimize.minimize import minimize_loss

BATCH = 64
REPEATS = 5


def _best_of(repeats, fn):
    """Best-of-N wall time (and the last return value, for checks)."""
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def glm_margin_kernel(family, universe_points=20_000, d=8):
    """Sections 1a/1b: the blocked margin-matrix kernel per GLM family.

    The squared family is the headline (>= 3x asserted): its link is
    cheap, so the evaluation is memory-bound and the universe-blocked
    layout wins big. Logistic is reported alongside for honesty — its
    ``logaddexp`` link is transcendental-bound, so the kernel's ceiling
    is lower there.
    """
    task = make_classification_dataset(n=4_000, d=d,
                                       universe_size=universe_points, rng=0)
    histogram = task.dataset.histogram()
    losses = family(task.universe, BATCH, rng=1)
    rng = np.random.default_rng(2)
    thetas = [rng.standard_normal(d) * 0.4 for _ in losses]

    scalar_seconds, scalar = _best_of(REPEATS, lambda: np.array(
        [loss.loss_on(theta, histogram)
         for loss, theta in zip(losses, thetas)]
    ))
    batch = compile_batch(losses)
    batched_seconds, batched = _best_of(
        REPEATS, lambda: batch.loss_values(thetas, histogram))
    return {
        "family": losses[0].__class__.__name__,
        "universe": histogram.universe.size, "dim": d, "batch": BATCH,
        "scalar_seconds": scalar_seconds, "batched_seconds": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "max_divergence": float(np.max(np.abs(scalar - batched))),
    }


def linear_loss_matrix(universe_size=200_000, k=BATCH):
    """Section 2: whole-batch linear answers as one matvec."""
    workload = large_universe_workload(universe_size=universe_size, k=k,
                                       n=50_000, rng=3)
    histogram = workload.dataset.histogram()
    queries = workload.queries

    scalar_seconds, scalar = _best_of(REPEATS, lambda: np.array(
        [histogram.dot(query.table) for query in queries]
    ))
    batch = compile_batch(queries)
    batched_seconds, batched = _best_of(
        REPEATS, lambda: batch.linear_answers(histogram))
    return {
        "universe": universe_size, "batch": k,
        "scalar_seconds": scalar_seconds, "batched_seconds": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "max_divergence": float(np.max(np.abs(scalar - batched))),
    }


def batched_data_minima(universe_points=10_000, d=6):
    """Section 3: squared-family closed forms through shared moments."""
    task = make_classification_dataset(n=4_000, d=d,
                                       universe_size=universe_points, rng=4)
    histogram = task.dataset.histogram()
    losses = random_squared_family(task.universe, BATCH, rng=5)

    scalar_seconds, scalar = _best_of(1, lambda: [
        minimize_loss(loss, histogram) for loss in losses
    ])
    batched_seconds, batched = _best_of(
        1, lambda: batch_data_minima(losses, histogram))
    divergence = max(
        float(np.max(np.abs(a.theta - b.theta)))
        for a, b in zip(scalar, batched)
    )
    return {
        "universe": histogram.universe.size, "dim": d, "batch": BATCH,
        "scalar_seconds": scalar_seconds, "batched_seconds": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "max_divergence": divergence,
    }


def cm_stream_prewarm(universe_points=6_000, d=6, k=BATCH):
    """Section 4: a whole PMW-CM stream with and without engine prewarm.

    ``prewarm=True`` routes the batch's data-side minimizations through
    :func:`repro.engine.batch_data_minima` (shared moment computation for
    the squared family) before the stream runs; ``prewarm=False`` is the
    pre-engine behaviour (one lazy universe-sized solve per round).
    Answers must agree exactly up to floating point.
    """
    from repro.core.pmw_cm import PrivateMWConvex
    from repro.erm.oracle import NonPrivateOracle

    task = make_classification_dataset(n=4_000, d=d,
                                       universe_size=universe_points, rng=9)
    losses = random_squared_family(task.universe, k, rng=10)
    scale = max(loss.scale_bound() for loss in losses)
    params = dict(scale=scale, alpha=0.3, epsilon=2.0, delta=1e-6,
                  max_updates=8, solver_steps=60)

    def run(prewarm):
        # A dataset copy per timed run: mechanisms over one Dataset object
        # share inner-solve minima, so a later run would reuse an earlier
        # one's.
        mechanism = PrivateMWConvex(
            task.dataset.copy(), NonPrivateOracle(solver_steps=60), rng=11,
            **params)
        return mechanism.answer_all(losses, on_halt="hypothesis",
                                    prewarm=prewarm)

    scalar_seconds, scalar = _best_of(3, lambda: run(False))
    batched_seconds, batched = _best_of(3, lambda: run(True))
    return {
        "universe": task.universe.size, "batch": k,
        "scalar_seconds": scalar_seconds, "batched_seconds": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "max_divergence": max(
            float(np.max(np.abs(a.theta - b.theta)))
            for a, b in zip(scalar, batched)),
    }


def linear_stream(universe_size=100_000, k=BATCH):
    """Section 5: a whole PMW-linear stream, scalar loop vs engine path.

    Linear streams are memory-bandwidth-bound (each table is read once
    per hypothesis version either way), so the interesting claims here
    are exact agreement and not regressing — the big linear win is the
    single-matvec *answering* of section 2, not the update stream.
    """
    workload = large_universe_workload(universe_size=universe_size, k=k,
                                       n=50_000, rng=7)

    def scalar_run():
        mechanism = PrivateMWLinear(
            workload.dataset, alpha=0.15, epsilon=2.0, max_updates=15,
            rng=8)
        return [mechanism.answer(query) for query in workload.queries]

    def batched_run():
        mechanism = PrivateMWLinear(
            workload.dataset, alpha=0.15, epsilon=2.0, max_updates=15,
            rng=8)
        return mechanism.answer_all(workload.queries)

    scalar_seconds, scalar = _best_of(3, scalar_run)
    batched_seconds, batched = _best_of(3, batched_run)
    return {
        "universe": universe_size, "batch": k,
        "scalar_seconds": scalar_seconds, "batched_seconds": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "max_divergence": max(
            abs(a.value - b.value) for a, b in zip(scalar, batched)),
    }


def build_report():
    report = ExperimentReport("E17 batched evaluation engine")

    glm = glm_margin_kernel(random_squared_family)
    logistic = glm_margin_kernel(random_logistic_family)
    report.add_table(
        ["family", "|X|", "d", "batch", "scalar s", "batched s", "speedup",
         "max |diff|"],
        [[row["family"], row["universe"], row["dim"], row["batch"],
          row["scalar_seconds"], row["batched_seconds"], row["speedup"],
          row["max_divergence"]]
         for row in (glm, logistic)],
        title=f"blocked margin-matrix kernel: {BATCH}-loss batch, "
              f"one universe pass vs per-query loop",
    )

    linear = linear_loss_matrix()
    report.add_table(
        ["|X|", "batch", "scalar s", "batched s", "speedup", "max |diff|"],
        [[linear["universe"], linear["batch"], linear["scalar_seconds"],
          linear["batched_seconds"], linear["speedup"],
          linear["max_divergence"]]],
        title="loss-matrix linear answers: one matvec vs per-query dots",
    )

    minima = batched_data_minima()
    report.add_table(
        ["|X|", "d", "batch", "scalar s", "batched s", "speedup",
         "max |theta diff|"],
        [[minima["universe"], minima["dim"], minima["batch"],
          minima["scalar_seconds"], minima["batched_seconds"],
          minima["speedup"], minima["max_divergence"]]],
        title="batched data minima: squared family via shared moments",
    )

    cm_stream = cm_stream_prewarm()
    report.add_table(
        ["|X|", "batch", "lazy s", "prewarmed s", "speedup", "max |diff|"],
        [[cm_stream["universe"], cm_stream["batch"],
          cm_stream["scalar_seconds"], cm_stream["batched_seconds"],
          cm_stream["speedup"], cm_stream["max_divergence"]]],
        title="end-to-end PMW-CM stream: lazy per-round data minima vs "
              "engine prewarm",
    )

    stream = linear_stream()
    report.add_table(
        ["|X|", "batch", "scalar s", "batched s", "speedup", "max |diff|"],
        [[stream["universe"], stream["batch"], stream["scalar_seconds"],
          stream["batched_seconds"], stream["speedup"],
          stream["max_divergence"]]],
        title="end-to-end PMW-linear stream: answer() loop vs "
              "block-batched answer_all",
    )
    return report, glm, linear, cm_stream, stream


# -- pytest entry points ------------------------------------------------------

@pytest.fixture(scope="module")
def results():
    return build_report()


def test_e17_report(results, save_report):
    report = results[0]
    text = save_report(report)
    assert "batched evaluation" in text


def test_e17_glm_batch_at_least_3x(results):
    glm = results[1]
    assert glm["speedup"] >= 3.0, (
        f"expected >= 3x over the per-query loop on a {BATCH}-query "
        f"batch, got {glm['speedup']:.2f}x"
    )
    assert glm["max_divergence"] < 1e-10


def test_e17_linear_matvec_not_slower_and_exact(results):
    linear = results[2]
    assert linear["speedup"] >= 1.0
    assert linear["max_divergence"] < 1e-10


def test_e17_cm_stream_prewarm_faster_and_agrees(results):
    cm_stream = results[3]
    assert cm_stream["max_divergence"] < 1e-10
    assert cm_stream["speedup"] >= 1.0


def test_e17_linear_stream_agrees(results):
    stream = results[4]
    assert stream["max_divergence"] < 1e-10


if __name__ == "__main__":
    report, glm, linear, cm_stream, stream = build_report()
    print(report.render())
    ok = (glm["speedup"] >= 3.0 and glm["max_divergence"] < 1e-10
          and linear["max_divergence"] < 1e-10
          and cm_stream["max_divergence"] < 1e-10
          and stream["max_divergence"] < 1e-10)
    print(f"acceptance: glm batch speedup={glm['speedup']:.1f}x (need >= 3), "
          f"agreement within 1e-10={glm['max_divergence'] < 1e-10} "
          f"-> {'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)
