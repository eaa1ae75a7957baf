"""E24 — numeric-backend demo: agreement and speed of the MW hot path.

Runs the same deterministic MW workload — in-place log-weight
accumulation, deferred normalization, inverse-CDF sampling, and a
linear-answer matvec — once per registered
:class:`~repro.backend.base.ArrayBackend` available on this machine,
and reports each accelerated backend against the bitwise-default NumPy
backend:

- ``max|Δw|``: worst per-element deviation of the materialized
  hypothesis weights (the numeric-tolerance contract says ≤ 1e-6);
- ``answer Δ``: worst linear-query answer deviation;
- ``sample agree``: fraction of inverse-CDF draws landing on the same
  universe index under a fixed seed;
- hot-loop wall time and speedup vs NumPy (demo-sized — the committed
  numbers live in ``benchmarks/bench_backend.py``).

A full end-to-end check rides along: a ``PMWService`` session opened
with each backend answers the same query stream, demonstrating the
``backend=`` plumbing through mechanism construction (select globally
with ``--backend`` / ``REPRO_BACKEND``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend import available_backends, get_backend
from repro.data.log_histogram import LogHistogram
from repro.data.synthetic import make_classification_dataset
from repro.experiments.report import ExperimentReport

#: The documented agreement band for accelerated backends.
TOLERANCE = 1e-6


def _hot_loop(backend_name: str, universe_size: int, rounds: int,
              seed: int):
    """The measured unit: MW updates + materialize + sample + answer.

    Directions and queries are drawn from a generator seeded
    identically for every backend, so deviations are purely arithmetic.
    """
    backend = get_backend(backend_name)
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((rounds, universe_size))
    query = rng.random(universe_size)

    from repro.data.universe import Universe

    universe = Universe(np.arange(universe_size, dtype=float)[:, None],
                        name="e24")
    core = LogHistogram(universe, backend=backend)
    started = time.perf_counter()
    for direction in directions:
        core.apply_update(direction, 0.05)
    weights = np.asarray(core.weights, dtype=float)
    elapsed = time.perf_counter() - started
    answer = float(query @ weights)
    samples = core.freeze().sample_indices(
        2048, rng=np.random.default_rng(seed + 1))
    return weights, answer, samples, elapsed


def _service_answers(backend_name: str, task, seed: int):
    """One PMWService session per backend, same seeded query stream."""
    from repro.losses.linear import LinearQuery
    from repro.serve.service import PMWService

    tables = np.random.default_rng(seed).random(
        (6, task.dataset.universe.size))
    queries = [LinearQuery(table, name=f"q{j}")
               for j, table in enumerate(tables)]
    with PMWService(task.dataset, backend=backend_name,
                    rng=np.random.default_rng(seed)) as service:
        sid = service.open_session("pmw-linear", alpha=0.3, epsilon=2.0,
                                   delta=1e-6, max_updates=3,
                                   rng=np.random.default_rng(seed))
        results = service.serve_session_batch(sid, queries)
        backend_label = service.session(sid).mechanism.backend_name
    return [float(result.value) for result in results], backend_label


def run_backend_demo(*, universe_size: int = 20000, rounds: int = 12,
                     rng=0) -> ExperimentReport:
    """Compare every available backend on the MW hot path."""
    seed = int(rng) if not isinstance(rng, np.random.Generator) else 0
    report = ExperimentReport(
        name="E24: pluggable numeric backend (MW hot path)")
    names = available_backends()
    report.add(f"available backends: {names} "
               f"(select with --backend or REPRO_BACKEND)")

    baseline = _hot_loop("numpy", universe_size, rounds, seed)
    base_weights, base_answer, base_samples, base_elapsed = baseline
    rows = []
    worst = 0.0
    for name in names:
        weights, answer, samples, elapsed = _hot_loop(
            name, universe_size, rounds, seed)
        delta_w = float(np.max(np.abs(weights - base_weights)))
        delta_a = abs(answer - base_answer)
        agree = float(np.mean(samples == base_samples))
        worst = max(worst, delta_w, delta_a)
        rows.append([
            name, np.dtype(get_backend(name).dtype).name,
            delta_w, delta_a, f"{agree:.1%}",
            f"{elapsed * 1e3:.1f}ms",
            f"{base_elapsed / elapsed:.2f}x" if elapsed > 0 else "-",
        ])
    report.add_table(
        ["backend", "dtype", "max|dw| vs numpy",
         "answer delta", "sample agree", "hot loop", "vs numpy"],
        rows,
        title=f"MW hot path at |X|={universe_size}, {rounds} updates",
    )
    report.add(
        f"worst deviation {worst:.3g} vs tolerance {TOLERANCE:g} -> "
        f"{'OK' if worst <= TOLERANCE else 'VIOLATION'} "
        f"(numpy row is bitwise zero by construction)"
    )

    task = make_classification_dataset(n=300, d=2, universe_size=64,
                                       rng=seed)
    service_rows = []
    reference = None
    for name in names:
        values, label = _service_answers(name, task, seed)
        if reference is None:
            reference = values
        spread = max(abs(a - b) for a, b in zip(values, reference))
        service_rows.append([name, label, f"{values[0]:.6f}", spread])
    report.add_table(
        ["requested", "mechanism.backend_name", "first answer",
         "max answer spread"],
        service_rows,
        title="PMWService sessions opened with backend=...",
    )
    return report
