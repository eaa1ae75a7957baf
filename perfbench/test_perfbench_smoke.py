"""Self-test of the serving benchmark: every workload, both modes, at tiny
sizes, with every correctness check passing.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's entry point, next to this file)

run._load_program()
from workloads import WORKLOADS  # noqa: E402


def _benchmark_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_metrics_the_command_reports():
    spec = _benchmark_spec()
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["glm_backlog", "linear_repeat",
                                      "sharded_adaptive"])
def test_smoke_run_passes_every_check(workload, trace, tmp_path):
    output = io.StringIO()
    # main() pins BLAS threads through the environment; keep that out of
    # the other tests' shard workers.
    with contextlib.redirect_stdout(output), mock.patch.dict(os.environ):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace),
                         "--smoke", "--out", str(tmp_path)])
    lines = output.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, output.getvalue()
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in expected]
    for name, unit, _ in expected:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] >= 0 or name == \
            "trace.overhead_frac"
    assert "checks: ok" in lines
    # Temporary ledgers are removed; only result files remain.
    assert not [name for name in os.listdir(tmp_path)
                if name.startswith("work-")]


def _session_members(session_id: int) -> list[str]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields: state, ppid, pgrp, session, ...
        if int(fields[3]) == session_id and fields[0] != "Z":
            members.append(entry)
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_command_leaves_no_process_running(tmp_path):
    """The forkserver, the resource tracker and the shard workers a
    sharded run starts have all ended by the time the command exits."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", "sharded_adaptive", "--seed", "3",
               "--seconds", "1", "--trace", "0", "--smoke",
               "--out", str(tmp_path)]
    # Output goes to a file, not a pipe: waiting for a pipe's end would
    # also wait for every process that inherited it.
    log = tmp_path / "output.txt"
    with open(log, "wb") as output:
        process = subprocess.Popen(command, cwd=os.path.dirname(HERE),
                                   stdout=output, stderr=subprocess.STDOUT,
                                   start_new_session=True)
        code = process.wait(timeout=120)
    left = _session_members(process.pid)
    assert code == 0, log.read_text()
    assert left == []
