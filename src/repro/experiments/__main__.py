"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro.experiments                # run everything
    python -m repro.experiments e1 e5 e12      # run selected experiments
    python -m repro.experiments --list         # show what exists
    python -m repro.experiments --out results/ # also save reports

Each experiment prints the same paper-vs-measured report the benchmark
suite archives under ``benchmarks/results/``.

Three operator verbs manage a deployed service's durability and
observability artifacts (see :mod:`repro.serve.checkpoint` and
:mod:`repro.obs`)::

    # rotate a budget journal offline (archive + RLE baselines)
    python -m repro.experiments compact --ledger budget.jsonl

    # recovery readiness: checkpoint generations, stamps, replay suffix
    python -m repro.experiments checkpoint --dir checkpoints/ \\
        --ledger budget.jsonl

    # re-render a saved MetricsRegistry snapshot for a scrape endpoint
    python -m repro.experiments metrics --snapshot metrics.json \\
        --format prometheus

    # failover readiness of a sharded deployment (topology + per-shard
    # checkpoint/journal state, see repro.serve.shard)
    python -m repro.experiments shards --dir /var/lib/repro/deploy
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

from repro.experiments.backend_demo import run_backend_demo
from repro.experiments.crossover import run_crossover
from repro.experiments.diagnostics import (
    run_dual_certificate_check,
    run_sensitivity_check,
    run_update_count,
    run_update_rule_ablation,
)
from repro.experiments.generalization import run_generalization
from repro.experiments.observability import run_observability_demo
from repro.experiments.offline_online import run_offline_online
from repro.experiments.oracles import run_oracle_sweep
from repro.experiments.recovery import (
    checkpoint_status,
    compact_ledger,
    run_recovery_demo,
)
from repro.experiments.resilience import run_resilience_demo
from repro.experiments.runtime import run_runtime_profile
from repro.experiments.serving import run_gateway_demo
from repro.experiments.sharding import run_sharding_demo, shard_status
from repro.experiments.table1 import (
    run_linear_row,
    run_lipschitz_row,
    run_strongly_convex_row,
    run_uglm_row,
)

EXPERIMENTS = {
    "e1": ("Table 1 row: linear queries", run_linear_row),
    "e2": ("Table 1 row: Lipschitz d-bounded", run_lipschitz_row),
    "e3": ("Table 1 row: UGLM", run_uglm_row),
    "e4": ("Table 1 row: strongly convex", run_strongly_convex_row),
    "e5": ("composition-vs-PMW crossover", run_crossover),
    "e6": ("update count vs Figure 3 budget", run_update_count),
    "e7": ("Claim 3.5 dual certificate", run_dual_certificate_check),
    "e8": ("sensitivity lemma 3S/n", run_sensitivity_check),
    "e9": ("single-query oracle sweep", run_oracle_sweep),
    "e10": ("adaptive generalization", run_generalization),
    "e11": ("runtime vs |X|", run_runtime_profile),
    "e12": ("update-rule ablation", run_update_rule_ablation),
    "e13": ("offline vs online variant", run_offline_online),
    "e14": ("gateway load demo: coalescing + admission-control metrics",
            run_gateway_demo),
    "e15": ("crash-recovery demo: checkpoint + suffix replay + compaction",
            run_recovery_demo),
    "e16": ("observability demo: span latencies, trace trees, budget gauges",
            run_observability_demo),
    "e22": ("sharded-failover demo: consistent-hash routing, SIGKILL + "
            "auto-restore with exact budget totals", run_sharding_demo),
    "e23": ("resilience demo: priority lanes, deadline shedding, "
            "exactly-once retries across a mid-reply kill",
            run_resilience_demo),
    "e24": ("numeric-backend demo: MW hot-path agreement + speed per "
            "registered ArrayBackend", run_backend_demo),
}


def _run_verb(argv) -> int:
    """The ``checkpoint``/``compact``/``metrics``/``shards`` verbs."""
    verb, rest = argv[0], argv[1:]
    if verb == "metrics":
        return _run_metrics_verb(rest)
    if verb == "shards":
        parser = argparse.ArgumentParser(
            prog="python -m repro.experiments shards",
            description="failover readiness of a sharded deployment "
                        "directory (topology, per-shard checkpoints, "
                        "replay suffixes)",
        )
        parser.add_argument("--dir", required=True,
                            help="ShardedService deployment directory "
                                 "(holds topology.json)")
        args = parser.parse_args(rest)
        return shard_status(args.dir)
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.experiments {verb}",
        description=("inspect checkpoint/ledger recovery readiness"
                     if verb == "checkpoint"
                     else "rotate a budget journal offline"),
    )
    if verb == "checkpoint":
        parser.add_argument("--dir", required=True,
                            help="checkpoint directory (Checkpointer's)")
        parser.add_argument("--ledger", default=None,
                            help="budget journal to diff the stamp against")
        args = parser.parse_args(rest)
        return checkpoint_status(args.dir, ledger_path=args.ledger)
    parser.add_argument("--ledger", required=True,
                        help="budget journal (JSONL) to compact in place")
    parser.add_argument("--archive-dir", default=None,
                        help="directory for the archived old segment "
                             "(default: alongside the journal)")
    args = parser.parse_args(rest)
    compact_ledger(args.ledger, archive_dir=args.archive_dir)
    return 0


def _run_metrics_verb(rest) -> int:
    """Re-render a saved :class:`~repro.obs.MetricsRegistry` snapshot.

    A service dumps its registry with ``registry.to_json(path)``; this
    verb turns that file back into Prometheus text exposition (for a
    textfile-collector scrape) or re-serialized JSON — proving the
    snapshot round-trips without the service running.
    """
    import json

    from repro.obs import MetricsRegistry

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments metrics",
        description="render a saved MetricsRegistry snapshot",
    )
    parser.add_argument("--snapshot", required=True,
                        help="registry snapshot JSON "
                             "(MetricsRegistry.to_json output)")
    parser.add_argument("--format", choices=("prometheus", "json"),
                        default="prometheus",
                        help="output format (default: prometheus)")
    args = parser.parse_args(rest)
    with open(args.snapshot, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    registry = MetricsRegistry.from_snapshot(state)
    if args.format == "prometheus":
        sys.stdout.write(registry.render_prometheus())
    else:
        sys.stdout.write(registry.to_json() + "\n")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("checkpoint", "compact", "metrics", "shards"):
        return _run_verb(argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation (Table 1 + theorem "
                    "claims) as measured experiments.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory to save report text files into")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default 0)")
    parser.add_argument("--backend", default=None,
                        help="numeric backend for every mechanism built in "
                             "this run (sets REPRO_BACKEND: 'numpy' or "
                             "'float32')")
    args = parser.parse_args(argv)

    if args.backend is not None:
        # Exported rather than threaded through each runner: backend
        # resolution happens wherever a mechanism or histogram is built,
        # and the env var is the one knob they all consult.
        os.environ["REPRO_BACKEND"] = args.backend

    if args.list:
        for key, (description, _) in EXPERIMENTS.items():
            print(f"  {key:5s} {description}")
        return 0

    selected = args.experiments or list(EXPERIMENTS)
    unknown = [key for key in selected if key not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown}; "
                     f"known: {list(EXPERIMENTS)}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    for key in selected:
        description, runner = EXPERIMENTS[key]
        print(f"[{key}] {description} ...", flush=True)
        started = time.perf_counter()
        report = runner(rng=args.seed)
        elapsed = time.perf_counter() - started
        text = report.render()
        print(text)
        print(f"[{key}] done in {elapsed:.1f}s\n", flush=True)
        if args.out is not None:
            (args.out / f"{key}.txt").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
