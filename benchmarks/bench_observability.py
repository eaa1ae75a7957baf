"""E21 — observability fidelity and overhead of the repro.obs stack.

PR 6's tentpole claims, measured under E19-style sustained gateway load
(concurrent analysts flooding squared-GLM CM sessions through the
coalescing `ServiceGateway`):

1. **tail fidelity** (gated) — with the `GatewayMetrics` facade on a
   shared `MetricsRegistry`, the end-to-end latency histogram's p99 is
   finite and *strictly below the top bucket edge* with **zero
   overflow**: the log-scale buckets (100 ns – 10 000 s) cover the whole
   observed tail, the saturation the old fixed-table histogram hit at
   3 276.8 ms is gone, and the interpolated quantile carries the
   documented <= 12.2 % relative-error bound.
2. **instrumentation overhead** (gated) — the *fully instrumented*
   configuration (shared registry + process tracer, every span site
   live through planner, session, mechanism rounds, and engine) costs
   at most **5 %** throughput against the identical workload with
   tracing off (span sites reduced to one module-global read). Measured
   on the serial ``service.submit`` path: the same instrumented round
   runs, but single-threaded, so the comparison isolates span cost from
   the gateway's thread-scheduling variance (which dwarfs 5 % at smoke
   sizes). The ratio off/on is the gated number (~1.0).
3. **budget exactness** (asserted) — after the load, every session's
   ``budget.epsilon_spent`` gauge (pull-published from the live
   accountants) equals the sum replayed from the budget ledger
   **bitwise** — telemetry an auditor can diff against the journal with
   ``==``, not ``approx``.

Results are archived as text (``benchmarks/results/e21.txt``) and JSON
(``benchmarks/results/BENCH_observability.json``); smoke runs write
``BENCH_observability.smoke.json`` — the nightly regression workflow
diffs fresh smoke numbers against the committed baseline.

Run standalone (``python benchmarks/bench_observability.py``), in CI
smoke mode (``--smoke``), or via pytest
(``pytest benchmarks/bench_observability.py -s``). ``--json-dir DIR``
redirects the JSON artifact.
"""

import gc
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

from repro.data.synthetic import make_classification_dataset
from repro.experiments.report import ExperimentReport
from repro.losses.families import random_squared_family
from repro.obs import MetricsRegistry, publish_service, trace
from repro.serve.ledger import replay_ledger
from repro.serve.metrics import GatewayMetrics
from repro.serve.service import PMWService

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
JSON_NAME = "BENCH_observability.json"

#: Maximum tolerated slowdown from full instrumentation (tracer +
#: registry + domain gauges all live), as a fraction of the tracing-off
#: throughput. Mirrors the CI perf-smoke guard.
OVERHEAD_BUDGET = 0.05

FULL_SIZES = dict(analysts=32, queries_per_analyst=10,
                  universe_size=20_000, d=8, workers=2)
SMOKE_SIZES = dict(analysts=16, queries_per_analyst=10,
                   universe_size=12_000, d=5, workers=2)

#: Both configurations are timed best-of-N over fresh services AND
#: fresh query objects (fingerprints are memoized per object), same
#: noise control as the other serving benchmarks. Smoke sizes run in
#: fractions of a second, so the 5% overhead assertion needs more
#: repeats there for the minima to shed scheduler jitter.
TIMING_REPEATS = 3
SMOKE_TIMING_REPEATS = 7

CONVEX_PARAMS = dict(oracle="non-private", alpha=0.25, beta=0.1,
                     epsilon=2.0, delta=1e-6, schedule="calibrated",
                     max_updates=6, solver_steps=30, noise_multiplier=0.0)


# -- workload -----------------------------------------------------------------


def convex_workload(sizes):
    """(dataset, params, streams_factory) for squared-GLM CM traffic."""
    task = make_classification_dataset(n=15_000, d=sizes["d"],
                                       universe_size=sizes["universe_size"],
                                       rng=1)

    def build_streams():
        streams, scale = [], 0.0
        for index in range(sizes["analysts"]):
            family = random_squared_family(
                task.universe, sizes["queries_per_analyst"] - 1,
                rng=5000 + index)
            scale = max(scale, max(loss.scale_bound() for loss in family))
            # One tail repeat per analyst: the repeat rides the
            # zero-cost cache lane and exercises cache counters.
            streams.append(list(family) + [family[0]])
        return streams, scale

    _, scale = build_streams()
    params = dict(CONVEX_PARAMS, scale=2.0 * scale)
    return task.dataset, params, lambda: build_streams()[0]


def run_load(dataset, streams, sizes, params, *, instrument,
             ledger_path=None, rng=17):
    """One sustained-load pass; ``instrument`` flips the whole obs stack.

    Returns ``(elapsed_seconds, registry, exactness_rows)`` —
    ``registry`` and the budget-exactness comparison are ``None`` for
    uninstrumented passes.
    """
    registry = None
    metrics = None
    if instrument:
        registry = MetricsRegistry()
        trace.install(registry=registry)
        metrics = GatewayMetrics(registry=registry)
    try:
        # A dataset copy per pass: mechanisms over one Dataset object
        # share inner-solve minima, so a later pass would reuse an
        # earlier one's.
        service = PMWService(dataset.copy(), ledger_path=ledger_path,
                             rng=rng)
        sids = [service.open_session("pmw-convex",
                                     analyst=f"analyst-{index}", **params)
                for index in range(sizes["analysts"])]
        futures = {sid: [] for sid in sids}
        with service.gateway(workers=sizes["workers"], max_queue_depth=512,
                             max_coalesce=32, metrics=metrics) as gateway:
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
                for future in futures[sid]:
                    future.result(timeout=600)
            elapsed = time.perf_counter() - started

        exactness = None
        if instrument:
            publish_service(registry, service)
            if ledger_path is not None:
                replayed = replay_ledger(ledger_path)
                exactness = []
                for sid in sids:
                    gauge = registry.get("budget.epsilon_spent",
                                         {"session": sid}).value
                    ledger_sum = sum(record["epsilon"] for record
                                     in replayed.spends.get(sid, []))
                    exactness.append({
                        "session": sid,
                        "gauge": gauge,
                        "replay": ledger_sum,
                        "bitwise_equal": gauge == ledger_sum,
                    })
        service.close()
        return elapsed, registry, exactness
    finally:
        if instrument:
            trace.uninstall()


# -- sections -----------------------------------------------------------------


def tail_and_exactness(sizes, streams_factory, dataset, params):
    """Sections 1 + 3: one instrumented run under a live ledger."""
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = os.path.join(tmp, "budget.jsonl")
        elapsed, registry, exactness = run_load(
            dataset, streams_factory(), sizes, params,
            instrument=True, ledger_path=ledger_path)
    end_to_end = registry.get("gateway.end_to_end")
    total = sizes["analysts"] * sizes["queries_per_analyst"]
    span_histograms = sum(
        1 for (name, _labels) in registry.collect("histogram")
        if name.startswith("span."))
    return {
        "requests": total,
        "seconds": elapsed,
        "rps": total / elapsed,
        "count": end_to_end.count,
        "p50_ms": end_to_end.quantile(0.5) * 1e3,
        "p99_ms": end_to_end.quantile(0.99) * 1e3,
        "max_ms": end_to_end.max * 1e3,
        "top_edge_seconds": end_to_end.top_edge,
        "overflow": end_to_end.overflow,
        "span_histograms": span_histograms,
        "budget_sessions": len(exactness),
        "budget_bitwise_equal": all(row["bitwise_equal"]
                                    for row in exactness),
        "budget_rows": exactness,
    }


def run_serial(dataset, streams, sizes, params, *, instrument, rng=17):
    """One single-dispatcher pass over the round-robin arrival order.

    The timed section runs with the cyclic GC off (collected right
    before): collector pauses land on whichever pass happens to cross
    an allocation threshold, which at smoke sizes is bigger than the
    5% signal this section gates.
    """
    if instrument:
        trace.install(registry=MetricsRegistry())
    try:
        service = PMWService(dataset.copy(), rng=rng)  # see run_load
        sids = [service.open_session("pmw-convex",
                                     analyst=f"analyst-{index}", **params)
                for index in range(sizes["analysts"])]
        requests = [(sid, stream[position])
                    for position in range(len(streams[0]))
                    for sid, stream in zip(sids, streams)]
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            for sid, query in requests:
                service.submit(sid, query, on_halt="hypothesis")
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        service.close()
        return elapsed
    finally:
        if instrument:
            trace.uninstall()


def instrumentation_overhead(sizes, streams_factory, dataset, params, *,
                             repeats=TIMING_REPEATS):
    """Section 2: identical serial load, tracing off vs on, paired.

    Passes alternate (off, on, off, on, ...) and the gated overhead is
    the **minimum of the paired on/off ratios** after one untimed
    warmup pass per mode. Pairing cancels slow machine-load drift;
    taking the best pair discards passes a noisy-neighbour scheduler
    disturbed. The estimator is deliberately optimistic-biased — a
    shared CI runner's jitter (±10% on sub-second passes) must not trip
    a 5% gate — but a *genuine* per-span regression shifts every pair,
    so a real blow-up still fails.
    """
    run_serial(dataset, streams_factory(), sizes, params,
               instrument=False)  # warmup: first passes run slow
    run_serial(dataset, streams_factory(), sizes, params, instrument=True)
    offs, ons = [], []
    for _ in range(repeats):
        offs.append(run_serial(dataset, streams_factory(), sizes, params,
                               instrument=False))
        ons.append(run_serial(dataset, streams_factory(), sizes, params,
                              instrument=True))
    best_pair = min(on / off for on, off in zip(ons, offs))
    off_seconds = min(offs)
    on_seconds = min(ons)
    total = sizes["analysts"] * sizes["queries_per_analyst"]
    return {
        "requests": total,
        "off_seconds": off_seconds,
        "on_seconds": on_seconds,
        "off_rps": total / off_seconds,
        "on_rps": total / on_seconds,
        "overhead_fraction": best_pair - 1.0,
        "ratio": 1.0 / best_pair,
    }


# -- assembly -----------------------------------------------------------------


def build_results(*, smoke=False):
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    dataset, params, streams_factory = convex_workload(sizes)
    tail = tail_and_exactness(sizes, streams_factory, dataset, params)
    overhead = instrumentation_overhead(
        sizes, streams_factory, dataset, params,
        repeats=SMOKE_TIMING_REPEATS if smoke else TIMING_REPEATS)
    return {
        "benchmark": "observability",
        "mode": "smoke" if smoke else "full",
        "overhead_budget": OVERHEAD_BUDGET,
        "sizes": sizes,
        "tail_fidelity": tail,
        "instrumentation_overhead": overhead,
        # The nightly regression gate diffs these at -20% tolerance.
        # The off/on throughput ratio is clamped to 1.0: scheduler
        # jitter can make the instrumented run *faster* on small smoke
        # sizes, and an inflated baseline would turn that noise into a
        # future false alarm. With the clamp, a gate breach means
        # instrumentation got >20% slower than uninstrumented serving.
        "gated_speedups": {
            "instrumentation_ratio": min(overhead["ratio"], 1.0),
        },
    }


def build_report(results):
    report = ExperimentReport(
        "E21 observability: tail fidelity, overhead, budget exactness")
    tail = results["tail_fidelity"]
    report.add_table(
        ["requests", "req/s", "p50 (ms)", "p99 (ms)", "max (ms)",
         "top edge (s)", "overflow"],
        [[tail["requests"], tail["rps"], tail["p50_ms"], tail["p99_ms"],
          tail["max_ms"], tail["top_edge_seconds"], tail["overflow"]]],
        title="tail fidelity under sustained load: end-to-end latency "
              "histogram (log-scale buckets, interpolated quantiles; "
              "gate: p99 < top edge, overflow == 0)",
    )
    overhead = results["instrumentation_overhead"]
    report.add_table(
        ["requests", "tracing-off s", "tracing-on s", "off req/s",
         "on req/s", "overhead"],
        [[overhead["requests"], overhead["off_seconds"],
          overhead["on_seconds"], overhead["off_rps"], overhead["on_rps"],
          f"{overhead['overhead_fraction'] * 100:.2f}%"]],
        title="full-instrumentation overhead (registry + tracer + domain "
              f"gauges; budget: <= {results['overhead_budget'] * 100:.0f}%)",
    )
    report.add_table(
        ["session", "epsilon_spent gauge", "ledger replay sum", "bitwise"],
        [[row["session"], row["gauge"], row["replay"],
          "equal" if row["bitwise_equal"] else "MISMATCH"]
         for row in tail["budget_rows"][:8]],
        title=f"budget exactness ({tail['budget_sessions']} sessions; "
              f"first 8 shown): gauge == journal-ordered ledger replay",
    )
    report.add(
        f"{tail['span_histograms']} span histograms populated by the "
        f"tracer during the instrumented run."
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
    results = {key: value for key, value in results.items()}
    results["tail_fidelity"] = {
        key: value for key, value in results["tail_fidelity"].items()
        if key != "budget_rows"
    }
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
    tail = results["tail_fidelity"]
    assert tail["count"] == tail["requests"], (
        f"histogram counted {tail['count']} of {tail['requests']} requests"
    )
    assert tail["overflow"] == 0, (
        f"{tail['overflow']} samples overflowed the latency histogram — "
        f"the log-scale range no longer covers the observed tail"
    )
    assert tail["p99_ms"] / 1e3 < tail["top_edge_seconds"], (
        f"p99 {tail['p99_ms']:.1f} ms reached the top bucket edge "
        f"({tail['top_edge_seconds']:.1f} s) — tail saturated"
    )
    assert tail["budget_bitwise_equal"], (
        "at least one session's epsilon_spent gauge diverged from its "
        "ledger replay sum"
    )
    overhead = results["instrumentation_overhead"]
    budget = results["overhead_budget"]
    assert overhead["overhead_fraction"] <= budget, (
        f"full instrumentation costs "
        f"{overhead['overhead_fraction'] * 100:.2f}% throughput — over "
        f"the {budget * 100:.0f}% budget"
    )


# -- pytest entry points ------------------------------------------------------


@pytest.fixture(scope="module")
def results():
    return build_results()


def test_e21_report(results, save_report):
    text = save_report(build_report(results))
    assert "observability" in text


def test_e21_bars(results):
    check_bars(results)


def test_e21_json_artifact(results):
    path = write_json(results)
    payload = json.loads(pathlib.Path(path).read_text())
    assert payload["gated_speedups"]["instrumentation_ratio"] > 0
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
        (RESULTS_DIR / "e21.txt").write_text(build_report(outcome).render())
    check_bars(outcome)
    overhead = outcome["instrumentation_overhead"]["overhead_fraction"]
    print(f"OK: overflow 0, p99 finite, budget gauges bitwise-exact, "
          f"instrumentation overhead {overhead * 100:.2f}% <= "
          f"{outcome['overhead_budget'] * 100:.0f}% "
          f"({outcome['mode']} mode)")


if __name__ == "__main__":
    main(sys.argv[1:])
