"""Shard death accounting when the monitor sees the corpse first.

``kill_shard`` promises that on return the death is fully accounted:
breaker open in ``health.json`` and the dead incarnation's shared-memory
segment unlinked. The supervisor's monitor thread can claim the same
death before ``kill_shard`` does. These tests force that ordering with
the supervisor's death-claim hook (no sleeps): the monitor claims, then
holds its side effects until ``kill_shard`` is waiting for them.
"""

import os
import pathlib
import signal
import threading

from repro.data.shm import SEGMENT_PREFIX
from repro.serve.shard import ShardedService, read_shard_health

VICTIM = "shard-00"
#: Failsafe only: every wait below is released by an event, never by
#: the timeout, unless the code under test is broken.
FAILSAFE_S = 60


def owned_segments() -> set[str]:
    prefix = f"{SEGMENT_PREFIX}_{os.getpid()}_"
    return {path.name
            for path in pathlib.Path("/dev/shm").glob(f"{prefix}*")}


class _ObservedEvent(threading.Event):
    """An event that reports when someone starts waiting on it."""

    def __init__(self, waiting: threading.Event) -> None:
        super().__init__()
        self._waiting = waiting

    def wait(self, timeout=None):
        self._waiting.set()
        return super().wait(timeout)


def _force_monitor_claim(service, victim):
    """SIGKILL ``victim`` behind the supervisor's back and let the
    monitor claim the death; its side effects stay held until another
    caller waits on the handle. Returns (claimers, release)."""
    handle = service._handle(victim)
    claimed = threading.Event()
    waiting = threading.Event()
    claimers = []
    handle.death_handled = _ObservedEvent(waiting)

    def hook(dying):
        claimers.append(threading.current_thread().name)
        claimed.set()
        waiting.wait(FAILSAFE_S)

    service._death_claimed_hook = hook
    os.kill(handle.process.pid, signal.SIGKILL)
    assert claimed.wait(FAILSAFE_S), "the monitor never claimed the death"
    return claimers, waiting


def test_kill_shard_waits_for_the_monitors_accounting(cube_dataset,
                                                     tmp_path):
    before = owned_segments()
    service = ShardedService(cube_dataset, tmp_path / "dep", shards=2,
                             ledger_fsync=False, rng=0, auto_restore=False)
    release = None
    try:
        assert len(owned_segments() - before) == 2
        claimers, release = _force_monitor_claim(service, VICTIM)
        service.kill_shard(VICTIM)
        assert claimers == ["shard-monitor"]
        health = read_shard_health(tmp_path / "dep")[VICTIM]
        assert health["breaker"] == "open"
        assert health["deaths"] == 1
        assert len(owned_segments() - before) == 1, \
            "dead incarnation's segment survived kill_shard"
        assert service.breaker_states()[VICTIM] == "open"
    finally:
        if release is not None:
            release.set()  # never leave the monitor parked in the hook
        service.close()
    assert owned_segments() - before == set()


def test_death_counted_once_across_both_claimants(cube_dataset, tmp_path):
    service = ShardedService(cube_dataset, tmp_path / "dep", shards=1,
                             ledger_fsync=False, rng=0, auto_restore=False)
    release = None
    try:
        claimers, release = _force_monitor_claim(service, VICTIM)
        service.kill_shard(VICTIM)
        assert claimers == ["shard-monitor"]
        assert read_shard_health(tmp_path / "dep")[VICTIM]["deaths"] == 1
        service.restore_shard(VICTIM)
        service.wait_alive(VICTIM)
        health = read_shard_health(tmp_path / "dep")[VICTIM]
        assert (health["deaths"], health["restarts"]) == (1, 1)
        assert health["breaker"] == "closed"
    finally:
        if release is not None:
            release.set()
        service.close()
