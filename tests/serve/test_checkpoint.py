"""Crash-injection suite for checkpointing, compaction, and restart.

The bugs this PR exists for only surface under kill-at-every-byte
schedules, not happy-path suites: a torn tmp file, a half-finished
rotation, a journal truncated mid-record after a checkpoint. Every test
here asserts the strongest form of recovery — restored accountant
*records* (not just totals) bitwise-equal to the pre-crash ones.
"""

import json
import os

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.losses.families import random_logistic_family, \
    random_quadratic_family
from repro.serve.checkpoint import Checkpointer, checkpoint_stamp
from repro.serve.ledger import BudgetLedger, fsync_dir, replay_ledger
from repro.serve.service import PMWService


def open_convex(service, **overrides):
    params = dict(oracle="non-private", scale=4.0, alpha=0.3, beta=0.1,
                  epsilon=2.0, delta=1e-6, schedule="calibrated",
                  max_updates=8, solver_steps=120)
    params.update(overrides)
    return service.open_session("pmw-convex", analyst="alice", **params)


def records_by_session(service):
    return {sid: service.session(sid).accountant.to_records()
            for sid in service.session_ids}


@pytest.fixture
def crashed_deployment(cube_dataset, tmp_path):
    """A service that checkpointed, then served a crash window, then
    died. Returns everything a restart (or a fault injector) needs."""
    ledger_path = tmp_path / "budget.jsonl"
    checkpoint_dir = tmp_path / "checkpoints"
    service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
    sids = [open_convex(service) for _ in range(2)]
    losses = random_quadratic_family(cube_dataset.universe, 6, rng=4)
    for sid in sids:
        service.answer_batch((sid, losses[:3]))
    checkpointer = Checkpointer(service, checkpoint_dir)
    checkpoint_path = checkpointer.checkpoint()
    # The crash window: journaled after the checkpoint.
    for sid in sids:
        service.answer_batch((sid, losses[3:]))
    expected = records_by_session(service)
    service.close()
    return dict(dataset=cube_dataset, ledger=ledger_path,
                checkpoints=checkpoint_dir, snapshot=checkpoint_path,
                sids=sids, expected=expected)


class TestCheckpointer:
    def test_checkpoint_and_restore_suffix(self, crashed_deployment):
        env = crashed_deployment
        restored = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                        ledger_path=env["ledger"])
        assert records_by_session(restored) == env["expected"]
        restored.close()

    def test_restore_equals_full_replay_bitwise(self, crashed_deployment):
        """checkpoint+suffix and full-journal replay must agree to the
        last bit — the tiers describe one history."""
        env = crashed_deployment
        suffix = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                      ledger_path=env["ledger"])
        cold = PMWService.restore(env["dataset"],
                                  ledger_path=env["ledger"])
        assert records_by_session(suffix) == records_by_session(cold)
        suffix.close()
        cold.close()

    def test_restored_service_continues(self, crashed_deployment):
        env = crashed_deployment
        restored = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                        ledger_path=env["ledger"])
        loss = random_quadratic_family(env["dataset"].universe, 1,
                                       rng=99)[0]
        result = restored.submit(env["sids"][0], loss)
        assert result.source in ("update", "no-update", "cache",
                                 "hypothesis")
        journaled = restored.ledger.replay()
        live = restored.session(env["sids"][0]).accountant
        assert journaled.accountant_for(env["sids"][0]).total_basic() == \
            live.total_basic()
        restored.close()

    def test_maybe_checkpoint_threshold(self, cube_dataset, tmp_path):
        service = PMWService(cube_dataset,
                             ledger_path=tmp_path / "b.jsonl", rng=0)
        sid = open_convex(service)
        checkpointer = Checkpointer(service, tmp_path / "ck",
                                    every_records=4)
        first = checkpointer.checkpoint()
        assert checkpointer.maybe_checkpoint() is None  # not advanced yet
        losses = random_quadratic_family(cube_dataset.universe, 6, rng=1)
        for loss in losses:
            service.submit(sid, loss)
        path = checkpointer.maybe_checkpoint()
        if service.ledger.last_seq - checkpoint_stamp(first) >= 4:
            assert path is not None
            assert checkpointer.maybe_checkpoint() is None  # re-armed
        service.close()

    def test_keep_prunes_old_generations(self, cube_dataset, tmp_path):
        service = PMWService(cube_dataset,
                             ledger_path=tmp_path / "b.jsonl", rng=0)
        open_convex(service)
        checkpointer = Checkpointer(service, tmp_path / "ck", keep=2)
        for _ in range(5):
            checkpointer.checkpoint()
        assert len(checkpointer.checkpoints()) == 2
        # generations keep increasing: the newest name sorts last
        assert checkpointer.latest().endswith("checkpoint-00000004.json")
        service.close()

    def test_new_checkpointer_resumes_stamp(self, crashed_deployment):
        env = crashed_deployment
        restored = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                        ledger_path=env["ledger"])
        fresh = Checkpointer(restored, env["checkpoints"])
        assert fresh.last_stamp == checkpoint_stamp(env["snapshot"])
        restored.close()


    def test_restored_sessions_replay_released_minima(
            self, classification_task, tmp_path):
        """A checkpoint carries each convex session's whole record table:
        hypothesis minima released before it are served bitwise again
        after restore, not solved anew from their warm starts."""
        dataset = classification_task.dataset
        ledger_path = tmp_path / "budget.jsonl"
        service = PMWService(dataset, ledger_path=ledger_path, rng=0)
        sid = open_convex(service, scale=2.0, alpha=0.05, max_updates=2,
                          solver_steps=60, noise_multiplier=0.0)
        losses = random_logistic_family(dataset.universe, 10, rng=31)
        first = service.answer_batch((sid, losses))
        assert service.session(sid).halted
        assert any(result.source == "hypothesis" for result in first)
        Checkpointer(service, tmp_path / "checkpoints").checkpoint()
        restored = Checkpointer.restore(dataset, tmp_path / "checkpoints",
                                        ledger_path=ledger_path)
        for loss in losses:
            want, got = (twin.submit(sid, loss, use_cache=False,
                                     on_halt="hypothesis").value
                         for twin in (service, restored))
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert records_by_session(restored) == records_by_session(service)
        service.close()
        restored.close()


class TestCrashInjection:
    def test_torn_checkpoint_tmp_ignored(self, crashed_deployment):
        """A crash mid-write of the next checkpoint leaves only a .tmp
        artifact; discovery must keep using the last durable one."""
        env = crashed_deployment
        torn = os.path.join(env["checkpoints"],
                            "checkpoint-00000001.json.tmp")
        with open(torn, "w") as handle:
            handle.write('{"format": "repro.serve/v1", "sess')  # torn
        restored = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                        ledger_path=env["ledger"])
        assert records_by_session(restored) == env["expected"]
        restored.close()

    def test_torn_journal_suffix_after_checkpoint(self, crashed_deployment):
        """The classic artifact: the process died mid-append after the
        checkpoint. The torn spend was never acted on; everything before
        it must restore exactly."""
        env = crashed_deployment
        healed = replay_ledger(env["ledger"])  # pre-tear authority
        with open(env["ledger"], "a") as handle:
            handle.write('{"seq": %d, "kind": "spend", "session": "%s", '
                         '"epsilon": 0.5' % (healed.last_seq + 1,
                                             env["sids"][0]))
        restored = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                        ledger_path=env["ledger"])
        assert records_by_session(restored) == env["expected"]
        restored.close()

    def test_kill_at_every_byte_of_the_suffix(self, crashed_deployment,
                                              tmp_path):
        """Truncate the journal at EVERY byte offset past the checkpoint
        stamp and restore: totals must equal an independent replay of
        the surviving complete records — never a crash, never a
        double-count, never a lost journaled spend."""
        env = crashed_deployment
        content = open(env["ledger"], "rb").read()
        stamp = checkpoint_stamp(env["snapshot"])
        # Byte offset where the suffix begins (first record past stamp).
        marker = b'{"seq":%d,' % (stamp + 1)
        start = content.index(marker)
        work = tmp_path / "kill"
        work.mkdir()
        cut_ledger = work / "budget.jsonl"
        for cut in range(start, len(content) + 1):
            with open(cut_ledger, "wb") as handle:
                handle.write(content[:cut])
            survivors = content[:cut]
            keep = survivors.rfind(b"\n") + 1
            authority = replay_ledger_bytes(work, survivors[:keep])
            restored = Checkpointer.restore(env["dataset"],
                                            env["checkpoints"],
                                            ledger_path=cut_ledger)
            for sid in env["sids"]:
                got = restored.session(sid).accountant.to_records()
                expected = authority.spends.get(sid, [])
                assert [strip_seq(r) for r in expected] == got, (
                    f"cut at byte {cut}: session {sid} diverged"
                )
            restored.close()

    def test_crash_before_rotation_swap(self, crashed_deployment,
                                        monkeypatch):
        """Kill between writing the compacted tmp file and the swap: the
        live journal is untouched, the tmp is stale, and a retried
        compact (or a plain restore) works."""
        env = crashed_deployment
        restored = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                        ledger_path=env["ledger"])

        def boom(src, dst):
            raise OSError("injected crash before swap")

        import repro.serve.ledger as ledger_module
        monkeypatch.setattr(os, "link", boom)
        monkeypatch.setattr(ledger_module, "_copy_durable", boom)
        with pytest.raises(OSError, match="injected"):
            restored.ledger.compact()
        monkeypatch.undo()
        # the ledger reopened its handle onto the (old) live journal
        loss = random_quadratic_family(env["dataset"].universe, 1,
                                       rng=41)[0]
        restored.submit(env["sids"][0], loss)
        expected = records_by_session(restored)
        restored.close()
        second = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                      ledger_path=env["ledger"])
        assert records_by_session(second) == expected
        archive = second.ledger.compact()  # the retry
        assert os.path.exists(archive)
        assert records_by_session(second) == expected
        second.close()

    def test_crash_between_archive_link_and_swap(self, crashed_deployment,
                                                 monkeypatch):
        """Kill after hard-linking the archive but before the rename:
        the journal at `path` is still the old one (no instant where it
        is missing), the archive is a stale duplicate, and a retried
        compact overwrites it."""
        env = crashed_deployment
        restored = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                        ledger_path=env["ledger"])
        expected = records_by_session(restored)
        real_replace = os.replace

        def boom(src, dst):
            raise OSError("injected crash after archive link")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="injected"):
            restored.ledger.compact()
        monkeypatch.setattr(os, "replace", real_replace)
        stale = [name for name in os.listdir(env["ledger"].parent)
                 if name.endswith(".archive")]
        assert stale  # the orphaned archive hard link
        assert records_by_session(restored) == expected
        archive = restored.ledger.compact()  # retry reclaims the name
        assert os.path.basename(archive) in stale
        restored.close()
        second = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                      ledger_path=env["ledger"])
        assert records_by_session(second) == expected
        second.close()

    def test_restore_after_completed_rotation(self, crashed_deployment):
        """A checkpoint stamped BEFORE a rotation cannot suffix-replay
        (the rotation folded its records into baselines); restore must
        detect this and fall back to full-replay authority, exactly."""
        env = crashed_deployment
        with BudgetLedger(env["ledger"]) as ledger:
            ledger.compact()
        state = replay_ledger(env["ledger"])
        assert state.compacted_through > checkpoint_stamp(env["snapshot"])
        restored = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                        ledger_path=env["ledger"])
        assert records_by_session(restored) == env["expected"]
        restored.close()

    def test_checkpointer_compact_then_restore(self, crashed_deployment):
        """The steady-state cycle: restore, compact (which re-stamps),
        crash again, restore — bitwise across the whole cycle."""
        env = crashed_deployment
        service = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                       ledger_path=env["ledger"])
        checkpointer = Checkpointer(service, env["checkpoints"])
        path, archive = checkpointer.compact()
        assert os.path.exists(path) and os.path.exists(archive)
        # post-rotation stamp is PAST the rotation header: suffix mode
        assert checkpoint_stamp(path) >= \
            replay_ledger(env["ledger"]).compacted_through
        service.close()
        again = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                     ledger_path=env["ledger"])
        assert records_by_session(again) == env["expected"]
        again.close()


class TestCompactionEquivalence:
    """compact() ∘ restore ≡ restore on the uncompacted journal."""

    @pytest.mark.parametrize("seed", range(6))
    def test_property_random_histories(self, tmp_path, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        path = tmp_path / "budget.jsonl"
        with BudgetLedger(path, fsync=False) as ledger:
            sessions = [f"s{i}" for i in range(int(rng.integers(1, 5)))]
            for sid in sessions:
                ledger.append_open(sid, "pmw-convex", {"alpha": 0.3})
            for _ in range(int(rng.integers(0, 120))):
                sid = sessions[int(rng.integers(len(sessions)))]
                ledger.append_spends(sid, [{
                    "epsilon": float(rng.choice([0.1, 0.25, 1e-3])),
                    "delta": float(rng.choice([0.0, 1e-9])),
                    "label": str(rng.choice(["oracle:a", "oracle:b", ""])),
                }])
            for sid in sessions:
                if rng.random() < 0.3:
                    ledger.append_close(sid)
        before = replay_ledger(path)
        with BudgetLedger(path) as ledger:
            ledger.compact()
        after = replay_ledger(path)
        assert set(after.opens) == set(before.opens)
        assert after.closed == before.closed
        for sid in before.opens:
            assert [strip_seq(r) for r in after.spends.get(sid, [])] == \
                [strip_seq(r) for r in before.spends.get(sid, [])]
            assert after.accountant_for(sid).total_basic() == \
                before.accountant_for(sid).total_basic()
            assert after.accountant_for(sid).total_advanced(1e-6) == \
                before.accountant_for(sid).total_advanced(1e-6)

    def test_double_compaction(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        with BudgetLedger(path) as ledger:
            ledger.append_open("s1", "pmw-convex", {})
            ledger.append_spends("s1", [{"epsilon": 0.1, "delta": 0.0}] * 7)
            first = ledger.compact()
            ledger.append_spends("s1", [{"epsilon": 0.2, "delta": 0.0}])
            second = ledger.compact()
        assert first != second
        state = replay_ledger(path)
        accountant = state.accountant_for("s1")
        assert accountant.num_spends == 8
        assert accountant.total_basic().epsilon == pytest.approx(0.9)

    def test_compact_empty_ledger(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        with BudgetLedger(path) as ledger:
            archive = ledger.compact()
            ledger.append_open("s1", "pmw-convex", {})
        assert os.path.exists(archive)
        assert replay_ledger(path).session_ids == ["s1"]


class TestSuffixReplay:
    def test_from_seq_skips_prefix(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        with BudgetLedger(path) as ledger:
            ledger.append_open("s1", "pmw-convex", {})
            ledger.append_spends("s1", [{"epsilon": 0.1, "delta": 0.0}] * 4)
            ledger.append_spends("s1", [{"epsilon": 0.7, "delta": 0.0}])
        suffix = replay_ledger(path, from_seq=4)
        assert suffix.last_seq == 5
        assert [r["epsilon"] for r in suffix.spends["s1"]] == [0.7]
        assert "s1" not in suffix.opens  # open is in the skipped prefix

    def test_from_seq_at_end_is_empty(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        with BudgetLedger(path) as ledger:
            ledger.append_open("s1", "pmw-convex", {})
        suffix = replay_ledger(path, from_seq=0)
        assert suffix.last_seq == 0
        assert not suffix.spends and not suffix.opens

    def test_from_seq_detects_midfile_gap(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        path.write_text(
            '{"seq": 0, "kind": "open", "session": "s1", '
            '"mechanism": "m", "params": {}}\n'
            '{"seq": 3, "kind": "close", "session": "s1"}\n'
        )
        with pytest.raises(ValidationError, match="sequence gap"):
            replay_ledger(path, from_seq=0)

    def test_rotated_file_opens_at_nonzero_seq(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        with BudgetLedger(path) as ledger:
            ledger.append_open("s1", "pmw-convex", {})
            ledger.append_spends("s1", [{"epsilon": 0.1, "delta": 0.0}])
            ledger.compact()
        state = replay_ledger(path)
        assert state.compacted_through == 1
        assert state.accountant_for("s1").num_spends == 1
        # but a plain file starting at nonzero seq is still a gap
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq": 5, "kind": "close", "session": "x"}\n')
        with pytest.raises(ValidationError, match="sequence gap"):
            replay_ledger(bad)


class TestRestorePathBugfixes:
    """Regression tests for the satellite restart-path bugs."""

    def test_stamped_snapshot_without_ledger_fails_loudly(
            self, cube_dataset, tmp_path):
        """A snapshot taken against a ledger must not silently restore
        without it — spends journaled after the snapshot would vanish."""
        snap = tmp_path / "service.json"
        service = PMWService(cube_dataset,
                             ledger_path=tmp_path / "b.jsonl", rng=0)
        open_convex(service)
        service.snapshot(snap)
        service.close()
        with pytest.raises(ValidationError, match="under-report"):
            PMWService.restore(cube_dataset, snapshot=snap)

    def test_ledger_behind_stamp_fails_loudly(self, cube_dataset,
                                              tmp_path):
        """Restoring a stamped snapshot against a shorter (wrong) ledger
        must refuse rather than under-report the crash window."""
        snap = tmp_path / "service.json"
        ledger_path = tmp_path / "b.jsonl"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        sid = open_convex(service)
        losses = random_quadratic_family(cube_dataset.universe, 3, rng=1)
        service.answer_batch((sid, losses))
        service.snapshot(snap)
        service.close()
        # "wrong ledger": an earlier backup missing the recent records
        # (keep only the open record, so last_seq < the snapshot stamp)
        content = open(ledger_path, "rb").read()
        lines = content.splitlines(keepends=True)
        with open(ledger_path, "wb") as handle:
            handle.writelines(lines[:1])
        with pytest.raises(ValidationError, match="not the ledger"):
            PMWService.restore(cube_dataset, snapshot=snap,
                               ledger_path=ledger_path)

    def test_post_snapshot_spends_survive_restore(self, cube_dataset,
                                                  tmp_path):
        """The satellite bug: spends journaled after the snapshot (the
        crash window) must surface in the restored accountant — as
        records, not just totals."""
        snap = tmp_path / "service.json"
        ledger_path = tmp_path / "b.jsonl"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        sid = open_convex(service)
        losses = random_quadratic_family(cube_dataset.universe, 6, rng=2)
        service.answer_batch((sid, losses[:2]))
        service.snapshot(snap)
        service.answer_batch((sid, losses[2:]))  # the crash window
        expected = service.session(sid).accountant.to_records()
        service.close()
        restored = PMWService.restore(cube_dataset, snapshot=snap,
                                      ledger_path=ledger_path)
        assert restored.session(sid).accountant.to_records() == expected
        restored.close()

    def test_session_counter_derived_from_replayed_ids(self, cube_dataset,
                                                       tmp_path):
        """An explicit id that LOOKS auto-minted must not make a
        post-restore open_session collide with it."""
        ledger_path = tmp_path / "b.jsonl"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        open_convex(service, session_id="pmw-convex-0002")
        service.close()
        restored = PMWService.restore(cube_dataset,
                                      ledger_path=ledger_path)
        fresh = open_convex(restored)  # pre-fix: ValidationError collision
        assert fresh != "pmw-convex-0002"
        assert set(restored.session_ids) == {"pmw-convex-0002", fresh}
        restored.close()

    def test_counter_also_hardened_on_snapshot_restore(self, cube_dataset,
                                                       tmp_path):
        snap = tmp_path / "service.json"
        service = PMWService(cube_dataset, rng=0)
        open_convex(service, session_id="pmw-convex-0005")
        service.snapshot(snap)
        restored = PMWService.restore(cube_dataset, snapshot=snap)
        fresh = open_convex(restored)
        assert fresh not in restored.session_ids[:-1]
        assert fresh != "pmw-convex-0005"


class TestServiceClose:
    def test_close_releases_ledger_handle(self, cube_dataset, tmp_path):
        service = PMWService(cube_dataset,
                             ledger_path=tmp_path / "b.jsonl", rng=0)
        handle = service.ledger._file
        assert not handle.closed
        service.close()
        assert handle.closed
        service.close()  # idempotent

    def test_context_manager(self, cube_dataset, tmp_path):
        with PMWService(cube_dataset, ledger_path=tmp_path / "b.jsonl",
                        rng=0) as service:
            sid = open_convex(service)
            assert sid in service.session_ids
        assert service.closed

    def test_closed_service_refuses_serving(self, cube_dataset, tmp_path):
        service = PMWService(cube_dataset,
                             ledger_path=tmp_path / "b.jsonl", rng=0)
        sid = open_convex(service)
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=0)[0]
        service.close()
        with pytest.raises(ValidationError, match="service is closed"):
            service.submit(sid, loss)
        with pytest.raises(ValidationError, match="service is closed"):
            open_convex(service)
        # read-only surfaces still work
        assert sid in service.budget_report()

    def test_gateway_shutdown_closes_service(self, cube_dataset,
                                             tmp_path):
        service = PMWService(cube_dataset,
                             ledger_path=tmp_path / "b.jsonl", rng=0)
        sid = open_convex(service)
        gateway = service.gateway(workers=2)
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=0)[0]
        gateway.submit(sid, loss)
        gateway.shutdown()
        assert gateway.closed
        assert service.closed
        assert service.ledger._file.closed

    def test_many_short_lived_services_leak_no_handles(self, cube_dataset,
                                                       tmp_path):
        import resource
        for index in range(30):
            with PMWService(cube_dataset,
                            ledger_path=tmp_path / f"b{index}.jsonl",
                            rng=0):
                pass
        soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
        assert soft > 0  # the loop itself not raising is the assertion


class TestDurabilityHelpers:
    def test_fsync_dir_on_file_and_directory(self, tmp_path):
        target = tmp_path / "x.txt"
        target.write_text("hello")
        fsync_dir(target)       # file: fsyncs its parent
        fsync_dir(tmp_path)     # directory: fsyncs itself

    def test_snapshot_leaves_no_tmp_and_is_stamped(self, cube_dataset,
                                                   tmp_path):
        ledger_path = tmp_path / "b.jsonl"
        snap = tmp_path / "service.json"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        open_convex(service)
        service.snapshot(snap)
        assert not os.path.exists(str(snap) + ".tmp")
        stamp = json.loads(snap.read_text())["ledger_seq"]
        assert stamp == service.ledger.last_seq
        service.close()

    def test_ledgerless_snapshot_not_stamped(self, cube_dataset,
                                             tmp_path):
        service = PMWService(cube_dataset, rng=0)
        open_convex(service)
        state = service.snapshot(tmp_path / "s.json")
        assert state["ledger_seq"] is None
        # and restoring it without a ledger stays legal
        PMWService.restore(cube_dataset, snapshot=tmp_path / "s.json")


class TestGatewayQuiesce:
    def test_quiesce_blocks_execution_not_admission(self, cube_dataset):
        import threading
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        losses = random_quadratic_family(cube_dataset.universe, 4, rng=3)
        with service.gateway(workers=2) as gateway:
            with gateway.quiesce():
                futures = [gateway.submit_async(sid, loss)
                           for loss in losses]
                # admitted but not executed: no spends can land
                assert gateway.in_flight == len(losses)
                assert all(not f.done() for f in futures)
                before = service.session(sid).accountant.num_spends
            results = [f.result(timeout=30) for f in futures]
            assert len(results) == len(losses)
            assert service.session(sid).accountant.num_spends >= before
        assert threading.active_count() >= 1

    def test_quiesce_waits_for_claimed_batches(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        losses = random_quadratic_family(cube_dataset.universe, 3, rng=5)
        with service.gateway(workers=2) as gateway:
            futures = [gateway.submit_async(sid, loss) for loss in losses]
            with gateway.quiesce():
                # everything claimed before the quiesce has settled
                claimed_done = [f for f in futures if f.done()]
                for future in claimed_done:
                    future.result()
            for future in futures:
                future.result(timeout=30)

    def test_checkpoint_under_load_is_consistent(self, cube_dataset,
                                                 tmp_path):
        """Checkpoints taken through a quiescing Checkpointer while
        analysts flood the gateway must restore to exactly the totals
        the journal had at the stamp."""
        import threading
        ledger_path = tmp_path / "b.jsonl"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        sids = [open_convex(service) for _ in range(3)]
        losses = random_quadratic_family(cube_dataset.universe, 8, rng=6)
        with service.gateway(workers=3, max_queue_depth=256) as gateway:
            checkpointer = Checkpointer(service, tmp_path / "ck",
                                        gateway=gateway)

            def flood(sid):
                for loss in losses:
                    gateway.submit(sid, loss)

            threads = [threading.Thread(target=flood, args=(sid,))
                       for sid in sids]
            for thread in threads:
                thread.start()
            path = checkpointer.checkpoint()  # mid-load, quiesced
            for thread in threads:
                thread.join()
            gateway.drain()
        stamp = checkpoint_stamp(path)
        snapshot = json.loads(open(path).read())
        at_stamp = replay_ledger(ledger_path)
        for sid in sids:
            record = snapshot["sessions"][sid]
            journaled_at_stamp = [
                strip_seq(r) for r in at_stamp.spends.get(sid, [])
                if r["seq"] <= stamp
            ]
            from repro.dp.accountant import expand_records
            snapshotted = expand_records(
                record["mechanism_snapshot"]["accountant"]["records"])
            assert snapshotted == journaled_at_stamp
        expected = records_by_session(service)
        service.close()
        restored = Checkpointer.restore(cube_dataset, tmp_path / "ck",
                                        ledger_path=ledger_path)
        assert records_by_session(restored) == expected
        restored.close()


def strip_seq(record):
    return {key: value for key, value in record.items() if key != "seq"}


def replay_ledger_bytes(workdir, content):
    """Replay a byte string as if it were the surviving journal (an
    empty file replays to an empty state)."""
    scratch = os.path.join(workdir, "authority.jsonl")
    with open(scratch, "wb") as handle:
        handle.write(content)
    return replay_ledger(scratch)


class TestOpenTimeValidation:
    def test_corrupt_journal_refused_at_open(self, tmp_path):
        """Appending onto a gapped/corrupt journal must fail at open
        (while a backup is fresh), not at the next restore."""
        path = tmp_path / "budget.jsonl"
        path.write_text(
            '{"seq": 0, "kind": "open", "session": "s1", '
            '"mechanism": "m", "params": {}}\n'
            '{"seq": 4, "kind": "close", "session": "s1"}\n'
        )
        with pytest.raises(ValidationError, match="sequence gap"):
            BudgetLedger(path)
        # a caller that has just replayed may skip the scan
        ledger = BudgetLedger(path, validate=False)
        ledger.close()

    def test_restore_skips_revalidation_but_still_replays(
            self, crashed_deployment):
        """restore passes validate=False (its replay already checked
        the range it trusts) and still restores exactly."""
        env = crashed_deployment
        restored = Checkpointer.restore(env["dataset"], env["checkpoints"],
                                        ledger_path=env["ledger"])
        assert records_by_session(restored) == env["expected"]
        restored.close()

    def test_cross_device_archive_fallback(self, tmp_path, monkeypatch):
        """compact(archive_dir=) must survive a filesystem where
        os.link raises (EXDEV) by durably copying instead."""
        path = tmp_path / "budget.jsonl"
        with BudgetLedger(path) as ledger:
            ledger.append_open("s1", "m", {})
            ledger.append_spends("s1", [{"epsilon": 0.1, "delta": 0.0}] * 3)
            before = replay_ledger(path)

            def exdev(src, dst):
                raise OSError(18, "Invalid cross-device link")

            monkeypatch.setattr(os, "link", exdev)
            archive = ledger.compact(archive_dir=tmp_path / "backup")
        assert os.path.exists(archive)
        assert replay_ledger(archive).last_seq == before.last_seq
        after = replay_ledger(path)
        assert after.accountant_for("s1").total_basic() == \
            before.accountant_for("s1").total_basic()


class TestSnapshotFormatBump:
    def test_mechanism_snapshots_write_v3(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        record = service.session(sid).snapshot()
        assert record["mechanism_snapshot"]["format"] == "repro.pmw_cm/v3"

    def test_v2_plain_records_still_restore(self, cube_dataset):
        """Pre-RLE snapshots (plain accountant records) must keep
        restoring bit-for-bit on the accepted-formats path."""
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        session = service.session(sid)
        record = session.snapshot()
        snap = record["mechanism_snapshot"]
        from repro.dp.accountant import expand_records
        snap["format"] = "repro.pmw_cm/v2"
        snap["accountant"]["records"] = expand_records(
            snap["accountant"]["records"])
        mechanism = service.registry.restore(
            record["mechanism"], snap, cube_dataset,
            **{k: v for k, v in record["params"].items()})
        assert mechanism.accountant.to_records() == \
            session.accountant.to_records()


class TestCloseSynchronization:
    def test_close_during_concurrent_serving_never_loses_a_spend(
            self, concentrated_dataset, tmp_path):
        """close() racing live submits: every round either completes
        (spend journaled before the handle goes away) or is refused
        cleanly — never a raw EBADF, never an accountant spend the
        journal missed."""
        import threading
        ledger_path = tmp_path / "b.jsonl"
        service = PMWService(concentrated_dataset,
                             ledger_path=ledger_path, rng=0)
        sids = [open_convex(service, noise_multiplier=0.0)
                for _ in range(3)]
        losses = random_quadratic_family(concentrated_dataset.universe,
                                         20, rng=7)
        unexpected = []
        barrier = threading.Barrier(4)

        def hammer(sid):
            barrier.wait()
            for loss in losses:
                try:
                    service.submit(sid, loss, on_halt="hypothesis")
                except ValidationError:
                    return  # clean refusal: service closed underneath us
                except Exception as error:  # EBADF/ValueError = the bug
                    unexpected.append(error)
                    return

        threads = [threading.Thread(target=hammer, args=(sid,))
                   for sid in sids]
        for thread in threads:
            thread.start()
        barrier.wait()
        service.close()  # races the in-flight rounds
        for thread in threads:
            thread.join()
        assert not unexpected, unexpected
        # every accountant spend that happened made it to the journal
        state = replay_ledger(ledger_path)
        for sid in sids:
            live = service.session(sid).accountant.to_records()
            journaled = [strip_seq(r) for r in state.spends.get(sid, [])]
            assert journaled == live

    def test_open_session_refused_after_close(self, cube_dataset,
                                              tmp_path):
        service = PMWService(cube_dataset,
                             ledger_path=tmp_path / "b.jsonl", rng=0)
        service.close()
        with pytest.raises(ValidationError, match="service is closed"):
            open_convex(service)

    def test_closed_ledger_append_fails_loudly(self, tmp_path):
        ledger = BudgetLedger(tmp_path / "b.jsonl")
        ledger.close()
        with pytest.raises(ValidationError, match="ledger is closed"):
            ledger.append_open("s1", "m", {})


class TestQuiesceFromWorker:
    def test_quiesce_on_worker_thread_raises_not_deadlocks(
            self, cube_dataset):
        """maybe_checkpoint wired into a future done-callback runs on a
        worker thread; quiesce() must refuse loudly instead of waiting
        on its own worker forever."""
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=8)[0]
        caught = []
        with service.gateway(workers=1) as gateway:
            def bad_callback(future):
                try:
                    with gateway.quiesce(timeout=5):
                        pass
                except ValidationError as error:
                    caught.append(error)

            future = gateway.submit_async(sid, loss)
            future.add_done_callback(bad_callback)
            future.result(timeout=30)
            gateway.drain(timeout=30)
        assert caught and "worker thread" in str(caught[0])


class TestWorkerThreadGuards:
    def test_maybe_checkpoint_on_worker_refuses_before_lock(
            self, cube_dataset, tmp_path):
        """Reproduces the cross-lock deadlock: a worker done-callback
        calls maybe_checkpoint while an external thread holds the
        checkpointer lock inside quiesce(). The worker must be refused
        BEFORE it blocks on the checkpointer lock."""
        import threading
        service = PMWService(cube_dataset,
                             ledger_path=tmp_path / "b.jsonl", rng=0)
        sid = open_convex(service)
        losses = random_quadratic_family(cube_dataset.universe, 4, rng=9)
        caught = []
        with service.gateway(workers=1) as gateway:
            checkpointer = Checkpointer(service, tmp_path / "ck",
                                        gateway=gateway, every_records=1)

            def bad_callback(future):
                try:
                    checkpointer.maybe_checkpoint()
                except ValidationError as error:
                    caught.append(error)

            # External checkpoint running concurrently with callbacks:
            # pre-fix, the callback blocks on the checkpointer lock and
            # the checkpoint blocks on the callback's worker — forever.
            futures = []
            for loss in losses:
                future = gateway.submit_async(sid, loss)
                future.add_done_callback(bad_callback)
                futures.append(future)
            external = threading.Thread(target=checkpointer.checkpoint)
            external.start()
            for future in futures:
                future.result(timeout=30)
            external.join(timeout=30)
            assert not external.is_alive()
        assert caught and "worker thread" in str(caught[0])
        service.close()

    def test_compact_seq_advances_even_if_dir_fsync_raises(
            self, tmp_path, monkeypatch):
        """A directory-fsync failure after the rename must not leave the
        in-memory seq colliding with the rotation header."""
        import repro.serve.ledger as ledger_module
        path = tmp_path / "budget.jsonl"
        with BudgetLedger(path) as ledger:
            ledger.append_open("s1", "m", {})
            ledger.append_spends("s1", [{"epsilon": 0.1, "delta": 0.0}] * 3)

            real_replace = os.replace
            def replace_then_boom(src, dst):
                real_replace(src, dst)
                monkeypatch.setattr(ledger_module, "fsync_dir", boom)
            def boom(target):
                raise OSError("injected dir-fsync failure")
            monkeypatch.setattr(os, "replace", replace_then_boom)
            with pytest.raises(OSError, match="injected"):
                ledger.compact()
            monkeypatch.undo()
            # the rotation landed; appending must continue cleanly
            ledger.append_spends("s1", [{"epsilon": 0.2, "delta": 0.0}])
        state = replay_ledger(path)
        accountant = state.accountant_for("s1")
        assert accountant.num_spends == 4
        assert accountant.total_basic().epsilon == pytest.approx(0.5)
