"""E19 — sustained-load throughput of the coalescing request gateway.

PR 4's tentpole claim: under concurrent analyst traffic, the
`ServiceGateway` (bounded per-session queues + cross-session worker pool
+ batch coalescing into the engine-prewarmed serving path) sustains at
least **2x** the throughput of the status quo ante — a single dispatcher
submitting the same arrival order one at a time against a plain
`PMWService`. Sections:

1. **sustained load** (the gated bar) — N concurrent analysts (64 at
   full size) each flood a burst of squared-GLM CM queries at their own
   pmw-convex session; the naive twin serves the identical round-robin
   arrival order serially. Coalescing converts each analyst's backlog
   into engine passes on *both* sides of the round: the lane's
   data-side minima batch through the shared-moment kernel
   (`PrivateMWConvex.prewarm`), and the lane's hypothesis-side solves
   batch per version through the same kernel
   (`PrivateMWConvex._batch_lane`). Every run rebuilds its
   query objects, so fingerprint hashing is paid identically by both
   modes, and answers must agree between the runs (deterministic twins:
   `noise_multiplier=0`, same seeds).
2. **coalescing only** — the same comparison with a single gateway
   worker: the win is purely algorithmic batching, no parallelism (the
   number that matters on a 1-CPU host).
3. **linear sessions** (informational) — interval linear queries
   against PMW-linear sessions: rounds are two dots and request cost is
   dominated by fingerprint hashing. PMW-linear has no prewarm hook, so
   nothing is batched and the gateway can only add parallelism — the
   honest number for hash-bound workloads.

Results are archived as text (``benchmarks/results/e19.txt``) and JSON
(``benchmarks/results/BENCH_gateway.json``); smoke runs write
``BENCH_gateway.smoke.json`` — the nightly regression workflow diffs
fresh smoke numbers against the committed baseline.

Run standalone (``python benchmarks/bench_gateway.py``), in CI smoke
mode (``--smoke`` — small sizes, asserts the sustained-load speedup
>= 1.3x), or via pytest (``pytest benchmarks/bench_gateway.py -s``).
``--json-dir DIR`` redirects the JSON artifact (used by the nightly
benchmark-regression workflow).
"""

import json
import os
import pathlib
import sys
import tempfile
import threading
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import pytest

from repro.data.builders import interval_grid
from repro.data.dataset import Dataset
from repro.data.synthetic import make_classification_dataset
from repro.experiments.report import ExperimentReport
from repro.losses.families import random_squared_family
from repro.losses.linear import LinearQuery
from repro.serve.service import PMWService

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
JSON_NAME = "BENCH_gateway.json"

#: Regression bars on the sustained-load speedup. Full mode runs 64
#: concurrent analysts; smoke (CI) runs small.
FULL_BAR = 2.0
SMOKE_BAR = 1.3

FULL_SIZES = dict(analysts=64, queries_per_analyst=12,
                  universe_size=50_000, d=10, workers=2)
SMOKE_SIZES = dict(analysts=16, queries_per_analyst=8,
                   universe_size=20_000, d=6, workers=2)

#: Both serving modes are timed best-of-N over fresh twin services AND
#: fresh query objects (fingerprints are memoized per object — reusing
#: objects across runs would hand whichever mode runs later a free
#: hash), the same noise control the hot-loop benchmark uses.
TIMING_REPEATS = 3

CONVEX_PARAMS = dict(oracle="non-private", alpha=0.25, beta=0.1,
                     epsilon=2.0, delta=1e-6, schedule="calibrated",
                     max_updates=6, solver_steps=30, noise_multiplier=0.0)
LINEAR_PARAMS = dict(alpha=0.1, epsilon=2.0, delta=1e-6, max_updates=8,
                     noise_multiplier=0.0)


# -- workloads ----------------------------------------------------------------


def convex_workload(sizes):
    """(dataset, params, streams_factory) for squared-GLM CM traffic."""
    task = make_classification_dataset(n=20_000, d=sizes["d"],
                                       universe_size=sizes["universe_size"],
                                       rng=1)

    def build_streams():
        streams, scale = [], 0.0
        for index in range(sizes["analysts"]):
            family = random_squared_family(
                task.universe, sizes["queries_per_analyst"] - 1,
                rng=3000 + index)
            scale = max(scale, max(loss.scale_bound() for loss in family))
            # One tail repeat per analyst: dashboards re-ask, and the
            # repeat rides the zero-cost cache lane in both modes.
            streams.append(list(family) + [family[0]])
        return streams, scale

    _, scale = build_streams()
    params = dict(CONVEX_PARAMS, scale=2.0 * scale)
    return task.dataset, params, lambda: build_streams()[0]


def linear_workload(sizes, *, n=30_000):
    """(dataset, params, streams_factory) for interval linear traffic."""
    universe_size = sizes["universe_size"]
    universe = interval_grid(universe_size)
    generator = np.random.default_rng(1)
    indices = np.concatenate([
        np.zeros(int(0.7 * n), dtype=int),
        generator.choice(universe_size, size=n - int(0.7 * n)),
    ])
    dataset = Dataset(universe, indices)

    def build_streams():
        streams = []
        for index in range(sizes["analysts"]):
            rng = np.random.default_rng(2000 + index)
            queries = []
            for position in range(sizes["queries_per_analyst"] - 1):
                table = np.zeros(universe_size)
                start = int(rng.integers(0, universe_size // 2))
                width = int(rng.integers(universe_size // 8,
                                         universe_size // 3))
                table[start:start + width] = 1.0
                table.setflags(write=False)
                queries.append(LinearQuery(
                    table, name=f"interval-{index}-{position}"))
            streams.append(queries + [queries[0]])
        return streams

    return dataset, dict(LINEAR_PARAMS), build_streams


# -- the two serving modes ----------------------------------------------------


def open_sessions(service, mechanism, analysts, params):
    return [
        service.open_session(mechanism, analyst=f"analyst-{index}",
                             **params)
        for index in range(analysts)
    ]


def arrival_order(sids, streams):
    """Round-robin interleaving: the arrival order a single dispatcher
    would see from concurrent analysts."""
    return [(sid, stream[position])
            for position in range(len(streams[0]))
            for sid, stream in zip(sids, streams)]


def run_naive(dataset, streams, analysts, *, mechanism, params, rng=17):
    """Status quo ante: one dispatcher, blocking submit per request."""
    # A dataset copy per timed run: mechanisms over one Dataset object
    # share inner-solve minima, so a later run would reuse an earlier one's.
    service = PMWService(dataset.copy(), rng=rng)
    sids = open_sessions(service, mechanism, analysts, params)
    requests = arrival_order(sids, streams)
    answers = {sid: [] for sid in sids}
    started = time.perf_counter()
    for sid, query in requests:
        answers[sid].append(service.submit(sid, query,
                                           on_halt="hypothesis"))
    elapsed = time.perf_counter() - started
    return elapsed, {sid: [r.value for r in results]
                     for sid, results in answers.items()}, sids


def run_gateway(dataset, streams, analysts, *, mechanism, params, workers,
                max_coalesce=32, rng=17):
    """N analyst threads flooding a gateway concurrently."""
    service = PMWService(dataset.copy(), rng=rng)  # see run_naive
    sids = open_sessions(service, mechanism, analysts, params)
    futures = {sid: [] for sid in sids}
    values = {}
    with service.gateway(workers=workers, max_queue_depth=512,
                         max_coalesce=max_coalesce) as gateway:
        started = time.perf_counter()

        def flood(sid, stream):
            futures[sid] = [gateway.submit_async(sid, query)
                            for query in stream]

        threads = [threading.Thread(target=flood, args=(sid, stream))
                   for sid, stream in zip(sids, streams)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for sid in sids:
            values[sid] = [future.result(timeout=600).value
                           for future in futures[sid]]
        elapsed = time.perf_counter() - started
        snapshot = gateway.metrics.snapshot()
    return elapsed, values, sids, snapshot


def compare_modes(dataset, streams_factory, analysts, *, mechanism, params,
                  workers, repeats=TIMING_REPEATS):
    """Best-of-N naive vs gateway on fresh streams, plus agreement."""
    naive_seconds = float("inf")
    for _ in range(repeats):
        elapsed, naive_values, naive_sids = run_naive(
            dataset, streams_factory(), analysts,
            mechanism=mechanism, params=params)
        naive_seconds = min(naive_seconds, elapsed)
    gateway_seconds = float("inf")
    for _ in range(repeats):
        elapsed, gateway_values, gateway_sids, snapshot = run_gateway(
            dataset, streams_factory(), analysts,
            mechanism=mechanism, params=params, workers=workers)
        gateway_seconds = min(gateway_seconds, elapsed)

    divergence = 0.0
    for sid_n, sid_g in zip(naive_sids, gateway_sids):
        for a, b in zip(naive_values[sid_n], gateway_values[sid_g]):
            divergence = max(divergence, float(np.max(np.abs(
                np.asarray(a) - np.asarray(b)))))
    return naive_seconds, gateway_seconds, divergence, snapshot


# -- sections -----------------------------------------------------------------


def sustained_load(sizes):
    """Section 1: coalescing gateway vs naive one-at-a-time dispatch."""
    dataset, params, streams_factory = convex_workload(sizes)
    total = sizes["analysts"] * sizes["queries_per_analyst"]
    naive_seconds, gateway_seconds, divergence, snapshot = compare_modes(
        dataset, streams_factory, sizes["analysts"],
        mechanism="pmw-convex", params=params, workers=sizes["workers"])
    return {
        "analysts": sizes["analysts"],
        "requests": total,
        "universe": sizes["universe_size"],
        "d": sizes["d"],
        "workers": sizes["workers"],
        "naive_seconds": naive_seconds,
        "gateway_seconds": gateway_seconds,
        "naive_rps": total / naive_seconds,
        "gateway_rps": total / gateway_seconds,
        "speedup": naive_seconds / gateway_seconds,
        "max_divergence": divergence,
        "coalesced_batches": snapshot["coalesced_batches"],
        "coalesced_requests": snapshot["coalesced_requests"],
        "coalesce_rate": snapshot["coalesce_rate"],
        "cache_hits": snapshot["sources"].get("cache", 0),
        "queue_wait_p99_ms": snapshot["queue_wait"]["p99_seconds"] * 1e3,
        "end_to_end_p99_ms": snapshot["end_to_end"]["p99_seconds"] * 1e3,
    }


def coalesce_only(sizes):
    """Section 2: one worker — the batching win without parallelism."""
    scaled = dict(sizes, analysts=max(8, sizes["analysts"] // 4))
    dataset, params, streams_factory = convex_workload(scaled)
    total = scaled["analysts"] * scaled["queries_per_analyst"]
    naive_seconds, gateway_seconds, divergence, snapshot = compare_modes(
        dataset, streams_factory, scaled["analysts"],
        mechanism="pmw-convex", params=params, workers=1)
    return {
        "analysts": scaled["analysts"],
        "requests": total,
        "universe": scaled["universe_size"],
        "naive_seconds": naive_seconds,
        "gateway_seconds": gateway_seconds,
        "speedup": naive_seconds / gateway_seconds,
        "max_divergence": divergence,
        "coalesced_batches": snapshot["coalesced_batches"],
        "coalesce_rate": snapshot["coalesce_rate"],
    }


def linear_sessions(sizes):
    """Section 3 (informational): hash-bound PMW-linear traffic."""
    scaled = dict(sizes, analysts=max(8, sizes["analysts"] // 4),
                  universe_size=2 * sizes["universe_size"])
    dataset, params, streams_factory = linear_workload(scaled)
    total = scaled["analysts"] * scaled["queries_per_analyst"]
    naive_seconds, gateway_seconds, divergence, snapshot = compare_modes(
        dataset, streams_factory, scaled["analysts"],
        mechanism="pmw-linear", params=params, workers=1)
    return {
        "analysts": scaled["analysts"],
        "requests": total,
        "universe": scaled["universe_size"],
        "naive_seconds": naive_seconds,
        "gateway_seconds": gateway_seconds,
        "speedup": naive_seconds / gateway_seconds,
        "max_divergence": divergence,
        "coalesce_rate": snapshot["coalesce_rate"],
    }


# -- assembly -----------------------------------------------------------------


def build_results(*, smoke=False):
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    load = sustained_load(sizes)
    solo = coalesce_only(sizes)
    linear = linear_sessions(sizes)
    return {
        "benchmark": "gateway",
        "mode": "smoke" if smoke else "full",
        "bar": SMOKE_BAR if smoke else FULL_BAR,
        "sustained_load": load,
        "coalesce_only": solo,
        "linear_sessions": linear,
        "speedups": {
            "sustained_load": load["speedup"],
            "coalesce_only": solo["speedup"],
            "linear_sessions": linear["speedup"],
        },
        # The subset the nightly regression gate diffs: only sections
        # with genuine headroom. linear_sessions hovers near 1.0x by
        # design (hash-bound, documented as informational) — gating it
        # at -20% would flake on scheduler noise alone.
        "gated_speedups": {
            "sustained_load": load["speedup"],
            "coalesce_only": solo["speedup"],
        },
    }


def build_report(results):
    report = ExperimentReport("E19 coalescing request gateway under load")
    load = results["sustained_load"]
    report.add_table(
        ["analysts", "requests", "|X|", "d", "workers", "naive s",
         "gateway s", "naive req/s", "gateway req/s", "speedup",
         "max |diff|"],
        [[load["analysts"], load["requests"], load["universe"], load["d"],
          load["workers"], load["naive_seconds"], load["gateway_seconds"],
          load["naive_rps"], load["gateway_rps"], load["speedup"],
          load["max_divergence"]]],
        title="sustained load, squared-GLM CM sessions: coalescing gateway "
              f"vs naive one-at-a-time dispatch (bar: >= {results['bar']}x)",
    )
    report.add_table(
        ["coalesced batches", "coalesced requests", "coalesce rate",
         "cache hits", "queue-wait p99 (ms)", "end-to-end p99 (ms)"],
        [[load["coalesced_batches"], load["coalesced_requests"],
          load["coalesce_rate"], load["cache_hits"],
          load["queue_wait_p99_ms"], load["end_to_end_p99_ms"]]],
        title="gateway pressure profile (metrics registry)",
    )
    solo = results["coalesce_only"]
    report.add_table(
        ["analysts", "requests", "|X|", "naive s", "gateway s", "speedup",
         "max |diff|"],
        [[solo["analysts"], solo["requests"], solo["universe"],
          solo["naive_seconds"], solo["gateway_seconds"], solo["speedup"],
          solo["max_divergence"]]],
        title="coalescing only (1 worker): both round sides batch through "
              "the shared-moment kernel — no parallelism involved",
    )
    linear = results["linear_sessions"]
    report.add_table(
        ["analysts", "requests", "|X|", "naive s", "gateway s", "speedup",
         "max |diff|"],
        [[linear["analysts"], linear["requests"], linear["universe"],
          linear["naive_seconds"], linear["gateway_seconds"],
          linear["speedup"], linear["max_divergence"]]],
        title="PMW-linear sessions (informational): request cost is "
              "dominated by per-request fingerprint hashing, so only the "
              "true-answer matvec batches",
    )
    return report


def write_json(results, json_dir=None):
    """Archive machine-readable results (perf trajectory across PRs).

    Full-mode results default into ``benchmarks/results/``; smoke runs
    default into a scratch directory so the casual CI/developer command
    (``--smoke`` with no ``--json-dir``) can never silently overwrite
    the committed nightly baseline. Re-baseline explicitly with
    ``--smoke --json-dir benchmarks/results``.
    """
    if json_dir is not None:
        directory = pathlib.Path(json_dir)
    elif results["mode"] == "full":
        directory = RESULTS_DIR
    else:
        directory = pathlib.Path(tempfile.gettempdir()) / "repro-bench-smoke"
    directory.mkdir(parents=True, exist_ok=True)
    name = JSON_NAME if results["mode"] == "full" \
        else JSON_NAME.replace(".json", ".smoke.json")
    path = directory / name
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    return path


def check_bars(results):
    """The assertions both pytest and the CI smoke job enforce."""
    load = results["sustained_load"]
    bar = results["bar"]
    assert load["speedup"] >= bar, (
        f"sustained-load speedup {load['speedup']:.2f}x is below the "
        f"{bar}x bar at {load['analysts']} analysts"
    )
    assert load["max_divergence"] < 1e-8, (
        f"gateway answers diverged from the serial twin by "
        f"{load['max_divergence']:.2e}"
    )
    assert load["coalesced_batches"] > 0, (
        "queue pressure never converted into a coalesced batch"
    )
    assert results["linear_sessions"]["max_divergence"] < 1e-8


# -- pytest entry points ------------------------------------------------------


@pytest.fixture(scope="module")
def results():
    return build_results()


def test_e19_report(results, save_report):
    text = save_report(build_report(results))
    assert "coalescing request gateway" in text


def test_e19_sustained_load_at_least_2x(results):
    check_bars(results)


def test_e19_json_artifact(results):
    path = write_json(results)
    payload = json.loads(pathlib.Path(path).read_text())
    assert payload["speedups"]["sustained_load"] >= FULL_BAR
    assert payload["mode"] == "full"


# -- standalone / CI ----------------------------------------------------------


def main(argv):
    smoke = "--smoke" in argv
    json_dir = None
    if "--json-dir" in argv:
        position = argv.index("--json-dir") + 1
        if position >= len(argv):
            raise SystemExit("--json-dir requires a directory argument")
        json_dir = argv[position]
    outcome = build_results(smoke=smoke)
    print(build_report(outcome).render())
    json_path = write_json(outcome, json_dir=json_dir)
    print(f"machine-readable results -> {json_path}")
    if not smoke and json_dir is None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "e19.txt").write_text(build_report(outcome).render())
    check_bars(outcome)
    speedup = outcome["sustained_load"]["speedup"]
    print(f"OK: sustained-load gateway speedup {speedup:.2f}x >= "
          f"{outcome['bar']}x ({outcome['mode']} mode)")


if __name__ == "__main__":
    main(sys.argv[1:])
