"""End-to-end serving benchmark for the PMW stack.

Runs one workload against the public API and prints one metric per line
(name, value, unit), the request counts, the result of the correctness
checks, and, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload glm_backlog --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` makes an untraced and a traced pass of ``seconds / 2``
each (on ``sharded_adaptive``, half the requests each) and reports the per-layer metrics (see ``layers.py``); the spans go
to a JSON-lines file next to the result file. Results land in
``.perfbench_out/`` at the root of the checkout. The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

from layers import (EXTRA, LAYER, LAYERS, NAME, PARENT, LayerTracer,
                    total_seconds)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (name, unit, better) of every end-to-end metric, reported with --trace 0.
END_TO_END = [
    ("throughput_qps", "queries/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("answered_frac", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("answer_error_mean", "loss", "lower"),
    ("epsilon_spent_mean", "epsilon", "lower"),
    ("cpu_s_per_query", "s", "lower"),
]

#: (name, unit, better) of every per-layer metric, reported with --trace 1.
PER_LAYER = [
    (f"{layer}.{field}", unit, "lower")
    for layer in LAYERS
    for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
] + [
    ("optimize.minimize_calls", "count", "lower"),
    ("optimize.minimize_ms_per_call", "ms", "lower"),
    ("optimize.exact_ratio", "ratio", "higher"),
    ("optimize.solves_per_round", "ratio", "higher"),
    ("losses.gradient_calls", "count", "lower"),
    ("losses.gradient_s", "s", "lower"),
    ("losses.value_calls", "count", "lower"),
    ("losses.fingerprint_calls", "count", "lower"),
    ("losses.fingerprint_s", "s", "lower"),
    ("engine.batch_minima_calls", "count", "lower"),
    ("engine.batch_minima_width_mean", "count", "higher"),
    ("engine.batch_minima_s", "s", "lower"),
    ("service.prewarm_s", "s", "lower"),
    ("service.plan_s", "s", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("gateway.queue_wait_ms_p50", "ms", "lower"),
    ("gateway.queue_wait_ms_p99", "ms", "lower"),
    ("gateway.batch_width_mean", "count", "higher"),
    ("gateway.shed", "count", "lower"),
    ("shard.rpc_s", "s", "lower"),
    ("shard.worker_serve_s", "s", "lower"),
    ("shard.boundary_ms_per_call", "ms", "lower"),
    ("shard.spawn_s", "s", "lower"),
    ("update.mw_calls", "count", "lower"),
    ("update.mw_s", "s", "lower"),
    ("update.certificate_s", "s", "lower"),
    ("oracle.s", "s", "lower"),
    ("mechanism.updates", "count", "lower"),
    ("mechanism.answer_calls", "count", "lower"),
    ("mechanism.svt_queries", "count", "lower"),
    ("dp.svt_calls", "count", "lower"),
    ("dp.svt_s", "s", "lower"),
    ("ledger.append_calls", "count", "lower"),
    ("ledger.append_s", "s", "lower"),
    ("ledger.bytes", "bytes", "lower"),
    ("checkpoint.captures", "count", "lower"),
    ("checkpoint.capture_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = {"glm_backlog": 25, "linear_repeat": 9, "sharded_adaptive": 5}
#: An open-loop run is invalid when its sends ran later than this (p99).
GENERATOR_LAG_BOUND_MS = 50.0
#: latency_p99_ms is printed only for runs with at least this many requests.
P99_MIN_REQUESTS = 1000
#: How long a leftover process is given to end after each signal.
STOP_GRACE_S = 10.0


def _load_program():
    """Put the checkout's ``src`` on the path, or exit without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: {src}/repro not found; run from the root of a "
              f"full checkout", file=sys.stderr)
        sys.exit(2)
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- measurements ------------------------------------------------------------------


def _worker_peak_mib(pids) -> float:
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
    return total


def _serve_seconds(deployment) -> float:
    service = deployment.service
    return sum(service.ping(shard)["serve_seconds"]
               for shard in getattr(service, "shard_ids", ()))


def _latencies_s(drive) -> list[float]:
    """Open loop: from the due time; otherwise from the send. A failed
    request counts as missing every limit: it sorts above every answer."""
    answered = [r.done - (r.due or r.sent)
                for r in drive.requests if r.answered]
    miss = max([drive.window_s] + answered)
    return answered + [miss] * (len(drive.requests) - len(answered))


class Pass:
    """One deployment driven for one window, torn down and checked."""

    def __init__(self, workload, inputs, workdir, seconds, tracer=None):
        import workloads
        from repro.exceptions import Shed

        started = time.perf_counter()
        deployment = workload.deploy(inputs, workdir)
        self.setup_s = time.perf_counter() - started
        self.spawn_s = deployment.spawn_s
        serve_before = _serve_seconds(deployment) if tracer else 0.0
        if tracer is not None:
            tracer.install()
        try:
            self.drive = workload.drive(deployment, inputs, seconds, tracer)
        except BaseException:
            workloads.close(deployment)
            workloads.remove(deployment)
            raise
        finally:
            if tracer is not None:
                tracer.remove()
        self.worker_serve_s = (_serve_seconds(deployment) - serve_before
                               if tracer else 0.0)
        self.worker_peak_mib = _worker_peak_mib(deployment.worker_pids)
        live = workload.budgets(deployment)
        workloads.close(deployment)
        replayed = workloads.replayed_budgets(deployment.ledger_paths)
        self.ledger_bytes = sum(os.path.getsize(path)
                                for path in deployment.ledger_paths)
        self.problems = workloads.check(self.drive.requests, live, replayed)
        self.epsilon_mean = statistics.fmean(
            epsilon for epsilon, _ in replayed.values())
        lags = self.drive.lags
        self.lag_p99_ms = _percentile_ms(lags, 99)
        if self.lag_p99_ms > GENERATOR_LAG_BOUND_MS:
            self.problems.append(
                f"load generator lag p99 {self.lag_p99_ms:.1f} ms exceeds "
                f"{GENERATOR_LAG_BOUND_MS} ms: the offered rate was not met")
        workloads.remove(deployment)
        requests = self.drive.requests
        self.attempted = len(requests)
        self.answered = sum(r.answered for r in requests)
        self.failed = self.attempted - self.answered
        self.shed = sum(isinstance(r.error, Shed) for r in requests)

    @property
    def cpu_per_query(self) -> float:
        return self.drive.cpu_s / max(1, self.answered)


def _percentile_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1000.0 if values else 0.0


def _extra_setups(workload, inputs, workdir, repeats: int) -> list[float]:
    """Times of set-ups that are torn down at once; with the measured
    pass's own set-up they give setup_s's median."""
    import workloads

    times = []
    for index in range(repeats):
        started = time.perf_counter()
        deployment = workload.deploy(inputs, f"{workdir}-setup{index}")
        times.append(time.perf_counter() - started)
        workloads.close(deployment)
        workloads.remove(deployment)
    return times


def end_to_end(workload, inputs, workdir, seconds, smoke):
    setups = _extra_setups(workload, inputs, workdir,
                           1 if smoke else SETUP_REPEATS[workload.name] - 1)
    run = Pass(workload, inputs, workdir, seconds)
    setups.append(run.setup_s)
    latencies = _latencies_s(run.drive)
    errors = workload.answer_errors(inputs, run.drive)
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "throughput_qps": run.answered / run.drive.window_s,
        "latency_p50_ms": _percentile_ms(latencies, 50),
        "latency_p90_ms": _percentile_ms(latencies, 90),
        "answered_frac": run.answered / run.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": own_peak + run.worker_peak_mib,
        "answer_error_mean": statistics.fmean(errors) if errors else 0.0,
        "epsilon_spent_mean": run.epsilon_mean,
        "cpu_s_per_query": run.cpu_per_query,
    }
    sources = [r.source for r in run.drive.requests if r.answered]
    extra = {"failed_frac": run.failed / run.attempted,
             "latency_p99_ms": (_percentile_ms(latencies, 99)
                                if run.attempted >= P99_MIN_REQUESTS
                                else None),
             "sources": {name: sources.count(name) for name in set(sources)},
             "window_s": run.drive.window_s,
             "answer_error_max": max(errors, default=0.0),
             "setup_samples_s": setups}
    return run, metrics, extra


def _useful_solves(workload, requests) -> int:
    """Solves the CM answers needed, counted from their sources: a paid
    round (``update`` or ``no-update``) needs the hypothesis-side minimum,
    and the data-side one the first time its session asks the query; a
    ``hypothesis`` answer needs the hypothesis-side minimum; a ``cache``
    hit needs none."""
    data_side = set()
    hypothesis_side = 0
    for r in requests:
        if not (r.answered and workload.is_cm(r)):
            continue
        if r.source in ("update", "no-update"):
            data_side.add((r.sid, r.key))
            hypothesis_side += 1
        elif r.source == "hypothesis":
            hypothesis_side += 1
    return len(data_side) + hypothesis_side


def _attempted_solves(tracer) -> int:
    """Every minimum the program computed: each member of an engine batch
    (closed form or not) plus each ``minimize_loss`` call made outside
    one."""
    def in_batch(span):
        ancestor = span[PARENT]
        while ancestor is not None:
            if ancestor[LAYER] == "engine" and ancestor[NAME] == \
                    "batch_minima":
                return True
            ancestor = ancestor[PARENT]
        return False

    batched = sum(span[EXTRA] for span in tracer.named("engine",
                                                        "batch_minima"))
    alone = sum(not in_batch(span)
                for span in tracer.named("optimize", "minimize"))
    return batched + alone


def per_layer(workload, inputs, workdir, seconds, spans_path):
    from workloads import GATEWAY_WORKERS

    half = seconds / 2.0
    plain = Pass(workload, inputs, workdir, half)
    tracer = LayerTracer()
    traced = Pass(workload, inputs, workdir, half, tracer=tracer)
    tracer.write(spans_path)
    times = tracer.layer_times()
    metrics = {}
    for layer, entry in times.items():
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.busy_s"] = entry["busy_s"]
        metrics[f"{layer}.self_s"] = entry["self_s"]
    requests = traced.drive.requests
    sources = [r.source for r in requests if r.answered]
    minimize = tracer.named("optimize", "minimize")
    batch_minima = tracer.named("engine", "batch_minima")
    svt = tracer.named("dp", "svt")
    rpc = tracer.named("shard", "rpc")
    batches = (tracer.named("service", "serve_session_batch")
               if not rpc else rpc)
    rpc_s = total_seconds(rpc)
    attempted_solves = _attempted_solves(tracer)
    metrics.update({
        "optimize.minimize_calls": len(minimize),
        "optimize.minimize_ms_per_call": (
            total_seconds(minimize) / len(minimize) * 1000.0
            if minimize else 0.0),
        "optimize.exact_ratio": (
            sum(span[EXTRA] for span in minimize) / len(minimize)
            if minimize else 0.0),
        "optimize.solves_per_round": (
            _useful_solves(workload, requests) / attempted_solves
            if attempted_solves else 0.0),
        "losses.gradient_calls": len(tracer.named("losses", "gradient")),
        "losses.gradient_s": total_seconds(tracer.named("losses",
                                                        "gradient")),
        "losses.value_calls": len(tracer.named("losses", "value")),
        "losses.fingerprint_calls": len(tracer.named("losses",
                                                     "fingerprint")),
        "losses.fingerprint_s": total_seconds(tracer.named("losses",
                                                           "fingerprint")),
        "engine.batch_minima_calls": len(batch_minima),
        "engine.batch_minima_width_mean": (
            sum(span[EXTRA] for span in batch_minima) / len(batch_minima)
            if batch_minima else 0.0),
        "engine.batch_minima_s": total_seconds(batch_minima),
        "service.prewarm_s": total_seconds(tracer.named("service",
                                                        "prewarm")),
        "service.plan_s": total_seconds(tracer.named("service", "plan")),
        "service.cache_hit_ratio": (sources.count("cache") / len(sources)
                                    if sources else 0.0),
        "gateway.queue_wait_ms_p50": _percentile_ms(tracer.queue_waits, 50),
        "gateway.queue_wait_ms_p99": _percentile_ms(tracer.queue_waits, 99),
        "gateway.batch_width_mean": (
            sum(span[EXTRA] for span in batches) / len(batches)
            if batches else 0.0),
        "gateway.shed": traced.shed,
        "shard.rpc_s": rpc_s,
        "shard.worker_serve_s": traced.worker_serve_s,
        "shard.boundary_ms_per_call": (
            (rpc_s - traced.worker_serve_s) / len(rpc) * 1000.0
            if rpc else 0.0),
        "shard.spawn_s": traced.spawn_s,
        "update.mw_calls": len(tracer.named("update", "mw")),
        "update.mw_s": total_seconds(tracer.named("update", "mw")),
        "update.certificate_s": total_seconds(tracer.named("update",
                                                           "certificate")),
        "oracle.s": total_seconds(tracer.named("oracle", "answer")),
        "mechanism.updates": sources.count("update"),
        "mechanism.answer_calls": len(tracer.named("mechanism", "answer")),
        "mechanism.svt_queries": (sources.count("update")
                                  + sources.count("no-update")),
        "dp.svt_calls": len(svt),
        "dp.svt_s": total_seconds(svt),
        "ledger.append_calls": len(tracer.named("ledger", "append")),
        "ledger.append_s": total_seconds(tracer.named("ledger", "append")),
        "ledger.bytes": traced.ledger_bytes,
        "checkpoint.captures": len(tracer.named("checkpoint", "capture")),
        "checkpoint.capture_s": total_seconds(tracer.named("checkpoint",
                                                           "capture")),
        "trace.coverage": (
            sum(entry["worker_self_s"] for entry in times.values())
            / (traced.drive.window_s * GATEWAY_WORKERS)),
        "trace.overhead_frac": (traced.cpu_per_query
                                / plain.cpu_per_query - 1.0),
    })
    shares = {layer: entry["self_s"] for layer, entry in times.items()}
    extra = {"untraced_problems": plain.problems,
             "self_time_share": {
                 layer: value / max(1e-12, sum(shares.values()))
                 for layer, value in shares.items()}}
    return plain, traced, metrics, extra


# -- environment and output ---------------------------------------------------------


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (benchmark checkouts usually have no ``.git`` at all)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, workload, attempted: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        entry = config["Build Dependencies"]["blas"]
        blas = f"{entry.get('name')} {entry.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy: no dict mode
        pass
    return {
        "git_commit": _git_commit(), "seed": args.seed,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "repro_backend": os.environ.get("REPRO_BACKEND"),
        "blas_threads": {variable: os.environ.get(variable)
                         for variable in BLAS_THREAD_VARIABLES},
        "workload": workload.name, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "offered_rate_qps": getattr(workload, "rate", None),
        "requests": attempted,
    }


NOTES = {
    "sharded_adaptive": (
        "layers below the pipe (service, mechanism, engine, optimize, "
        "losses, dp, oracle, update, ledger, checkpoint) run in spawned "
        "shard workers, which the parent's wrappers do not reach: their "
        "span metrics read 0 on this workload, and shard.worker_serve_s "
        "(the workers' own serve clock) stands for them. The parent's "
        "losses.fingerprint calls are real (query interning), and "
        "mechanism.updates, mechanism.svt_queries, service.cache_hit_ratio "
        "and ledger.bytes come from the answers and the journals."),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("glm_backlog", "linear_repeat",
                                 "sharded_adaptive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"),
                        help="directory for result files and temporary ledgers")
    args = parser.parse_args(argv)
    # One BLAS thread per process, whatever the caller's environment: the
    # gateway already runs one worker thread per core, and idle BLAS
    # helper threads spinning beside them made identical runs differ by
    # about 10% in CPU per query. Set before numpy loads; spawned shard
    # workers inherit it.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    _load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    os.makedirs(args.out, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(args.out, f"work-{os.getpid()}-{stem}")
    inputs = workload.make_inputs(args.seed)

    if args.trace:
        spans_path = os.path.join(args.out, f"{stem}-spans.jsonl")
        plain, run, metrics, extra = per_layer(
            workload, inputs, workdir, args.seconds, spans_path)
        problems = plain.problems + run.problems
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        run, metrics, extra = end_to_end(workload, inputs, workdir,
                                         args.seconds, args.smoke)
        problems = run.problems
        units = {name: unit for name, unit, _ in END_TO_END}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  window {run.drive.window_s:.2f} s")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  failed_frac = {extra['failed_frac']:.6g} ratio")
        print(f"  answer_error_max = {extra['answer_error_max']:.6g} loss")
        if extra["latency_p99_ms"] is not None:
            print(f"  latency_p99_ms = {extra['latency_p99_ms']:.6g} ms")
    print(f"requests: sent {run.attempted}, succeeded {run.answered}, "
          f"failed {run.failed}")
    if workload.open_loop:
        print(f"generator_lag_ms_p99 = {run.lag_p99_ms:.3f} ms "
              f"(bound {GENERATOR_LAG_BOUND_MS} ms)")
    if args.trace and args.workload in NOTES:
        print(f"note: {NOTES[args.workload]}")
    print("checks: " + ("ok" if not problems else "FAILED"))
    for problem in problems:
        print(f"  {problem}")

    record = {
        "environment": _environment(args, workload, run.attempted),
        "valid": not problems, "problems": problems,
        "requests": {"sent": run.attempted, "succeeded": run.answered,
                     "failed": run.failed},
        "generator_lag_ms_p99": run.lag_p99_ms,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "extra": extra, "note": NOTES.get(args.workload) if args.trace
        else None,
    }
    with open(os.path.join(args.out, f"{stem}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, default=str)
    print(json.dumps({
        "correct": not problems, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


# -- processes ---------------------------------------------------------------------


def _descendants(pid: int) -> list[int]:
    """Every live process below ``pid``, read from ``/proc``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            parents[int(entry)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [child for child, up in parents.items() if up == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii",
                  errors="replace") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_processes() -> None:
    """Stop every process the run started and wait for each to end.

    ``ShardedService`` forks its shard workers from a multiprocessing
    forkserver, and shared memory starts a resource tracker; both helpers
    otherwise outlive the benchmark until they notice it has exited. Any
    other descendant (a shard worker a failed run did not close) is
    terminated first: each worker holds the forkserver's pipe open, and
    the forkserver holds the tracker's.
    """
    from multiprocessing import forkserver, resource_tracker

    if not os.path.isdir("/proc"):
        return
    helpers = (forkserver._forkserver, resource_tracker._resource_tracker)
    helper_pids = {getattr(helpers[0], "_forkserver_pid", None),
                   getattr(helpers[1], "_pid", None)}
    leftover = [pid for pid in _descendants(os.getpid())
                if pid not in helper_pids]
    for signal_number in (signal.SIGTERM, signal.SIGKILL):
        leftover = [pid for pid in leftover if _running(pid)]
        for pid in leftover:
            with contextlib.suppress(OSError):
                os.kill(pid, signal_number)
        deadline = time.monotonic() + STOP_GRACE_S
        while (time.monotonic() < deadline
               and any(_running(pid) for pid in leftover)):
            with contextlib.suppress(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            time.sleep(0.05)
    for helper in helpers:
        with contextlib.suppress(AttributeError, OSError, ChildProcessError):
            helper._stop()


def cli() -> int:
    # A terminated run unwinds like an interrupted one, through the
    # cleanup below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return main()
    finally:
        workloads = sys.modules.get("workloads")
        if workloads is not None:
            workloads.close_started()
        stop_processes()


if __name__ == "__main__":
    sys.exit(cli())
