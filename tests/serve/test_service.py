"""Tests for the PMWService front door: serving, budgets, crash recovery."""

import os

import numpy as np
import pytest

from repro.exceptions import (
    MechanismHalted,
    PrivacyBudgetExhausted,
    ValidationError,
)
from repro.losses.families import (
    random_linear_queries,
    random_quadratic_family,
)
from repro.serve.service import PMWService


def open_convex(service, **overrides):
    params = dict(oracle="non-private", scale=4.0, alpha=0.3, beta=0.1,
                  epsilon=2.0, delta=1e-6, schedule="calibrated",
                  max_updates=8, solver_steps=120)
    params.update(overrides)
    return service.open_session("pmw-convex", analyst="alice", **params)


class TestSessions:
    def test_open_and_lookup(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        assert sid in service.session_ids
        assert service.session(sid).analyst == "alice"

    def test_session_ids_unique(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        assert open_convex(service) != open_convex(service)

    def test_explicit_session_id_collision(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        open_convex(service, session_id="mine")
        with pytest.raises(ValidationError, match="already in use"):
            open_convex(service, session_id="mine")

    def test_unknown_session(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        with pytest.raises(ValidationError, match="unknown session"):
            service.session("ghost")

    def test_named_datasets(self, cube_dataset, concentrated_dataset):
        service = PMWService(
            {"skewed": concentrated_dataset, "plain": cube_dataset}, rng=0)
        sid = open_convex(service, dataset="plain")
        assert service.session(sid).dataset == "plain"
        with pytest.raises(ValidationError, match="dataset name required"):
            open_convex(service)  # ambiguous: two datasets, no default

    def test_close_session(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=0)[0]
        service.submit(sid, loss)
        service.close_session(sid, drop_cache=True)
        assert service.session(sid).closed
        with pytest.raises(ValidationError, match="closed"):
            service.submit(sid, loss)

    def test_closed_session_not_served_from_cache(self, cube_dataset):
        """close() means no more answers — not even cached replays."""
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=0)[0]
        service.submit(sid, loss)
        # keep the entries: the refusal must come from the state check,
        # not from an empty cache
        service.close_session(sid, drop_cache=False)
        with pytest.raises(ValidationError, match="closed"):
            service.submit(sid, loss)
        with pytest.raises(ValidationError, match="closed"):
            service.answer_batch((sid, [loss]))


class TestServing:
    def test_submit_and_cache_idempotence(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=1)[0]
        first = service.submit(sid, loss)
        second = service.submit(sid, loss)
        assert second.source == "cache"
        assert second.free
        np.testing.assert_array_equal(first.value, second.value)

    def test_batch_lanes_and_order(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        losses = random_quadratic_family(cube_dataset.universe, 3, rng=2)
        batch = [losses[0], losses[1], losses[0], losses[2], losses[1]]
        results = service.answer_batch((sid, batch))
        assert len(results) == 5
        assert results[2].source == "cache"
        assert results[4].source == "cache"
        np.testing.assert_array_equal(results[2].value, results[0].value)
        # mechanism lane preserved stream order
        assert results[0].query_index == 0
        assert results[1].query_index == 1
        assert results[3].query_index == 2

    def test_multi_session_batch(self, cube_dataset, concentrated_dataset):
        service = PMWService(
            {"default": cube_dataset, "skewed": concentrated_dataset}, rng=0)
        a = open_convex(service, dataset="default")
        b = open_convex(service, dataset="skewed")
        losses = random_quadratic_family(cube_dataset.universe, 3, rng=3)
        results = service.answer_batch({a: losses, b: losses},
                                       max_workers=2)
        assert set(results) == {a, b}
        assert all(len(r) == 3 for r in results.values())
        # sessions are independent streams
        assert [r.query_index for r in results[a]] == [0, 1, 2]
        assert [r.query_index for r in results[b]] == [0, 1, 2]

    def test_empty_batch_dict(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        assert service.answer_batch({}) == {}

    def test_empty_query_list_for_session(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        assert service.answer_batch({sid: []}) == {sid: []}
        assert service.answer_batch((sid, [])) == []

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_answer_batch_rejects_nonpositive_workers(self, cube_dataset,
                                                      bad):
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=0)[0]
        with pytest.raises(ValidationError, match="max_workers"):
            service.answer_batch({sid: [loss]}, max_workers=bad)
        # shedding happened at validation: nothing entered the stream
        assert service.session(sid).queries_served == 0

    def test_answer_batch_single_worker_matches_serial(self, cube_dataset):
        """max_workers=1 must be byte-identical to a serial loop of
        per-session batches, in dict order."""
        losses = random_quadratic_family(cube_dataset.universe, 3, rng=9)

        def run(max_workers):
            service = PMWService(cube_dataset, rng=21)
            a = open_convex(service)
            b = open_convex(service)
            if max_workers is None:  # the reference: explicit serial calls
                out = {sid: service.serve_session_batch(sid, losses)
                       for sid in (a, b)}
            else:
                out = service.answer_batch({a: losses, b: losses},
                                           max_workers=max_workers)
            return [(r.source, np.asarray(r.value))
                    for sid in (a, b) for r in out[sid]]

        serial = run(None)
        pooled = run(1)
        for (source_a, value_a), (source_b, value_b) in zip(serial, pooled):
            assert source_a == source_b
            np.testing.assert_array_equal(value_a, value_b)

    def test_failing_session_leaves_others_complete(self, cube_dataset):
        """A worker raising mid-batch (closed session) propagates, but
        the other sessions' streams still run to completion."""
        service = PMWService(cube_dataset, rng=0)
        healthy = open_convex(service)
        broken = open_convex(service)
        service.close_session(broken)
        losses = random_quadratic_family(cube_dataset.universe, 3, rng=5)
        with pytest.raises(ValidationError, match="closed"):
            service.answer_batch({broken: losses, healthy: losses},
                                 max_workers=2)
        assert service.session(healthy).queries_served == 3
        assert service.session(broken).queries_served == 0

    def test_linear_session_serving(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        sid = service.open_session("pmw-linear", alpha=0.2, epsilon=1.0,
                                   delta=1e-6, max_updates=5)
        queries = random_linear_queries(cube_dataset.universe, 3, rng=0)
        results = service.answer_batch((sid, queries + [queries[0]]))
        assert isinstance(results[0].value, float)
        assert results[3].source == "cache"
        assert results[3].value == results[0].value

    def test_on_halt_hypothesis_keeps_batch_total(self, concentrated_dataset):
        service = PMWService(concentrated_dataset, rng=0)
        sid = open_convex(service, max_updates=2, noise_multiplier=0.0)
        losses = random_quadratic_family(concentrated_dataset.universe, 6,
                                         rng=1)
        results = service.answer_batch((sid, losses), on_halt="hypothesis")
        assert len(results) == 6
        assert any(r.source == "hypothesis" for r in results)
        assert all(r.free for r in results if r.source == "hypothesis")

    def test_on_halt_raise_propagates(self, concentrated_dataset):
        service = PMWService(concentrated_dataset, rng=0)
        sid = open_convex(service, max_updates=1, noise_multiplier=0.0)
        losses = random_quadratic_family(concentrated_dataset.universe, 5,
                                         rng=1)
        with pytest.raises(MechanismHalted):
            service.answer_batch((sid, losses), on_halt="raise")

    def test_invalid_on_halt(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=0)[0]
        with pytest.raises(ValidationError, match="on_halt"):
            service.submit(sid, loss, on_halt="explode")

    def test_first_query_cost_excludes_construction_spend(self,
                                                          cube_dataset):
        """Without a ledger, the sparse vector's lifetime spend must not be
        billed to the first query's marginal cost."""
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)  # no ledger_path
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=0)[0]
        result = service.submit(sid, loss)
        if result.source == "no-update":
            assert result.epsilon_spent == 0.0
            assert result.free
        else:
            # an update bills exactly the oracle's per-round epsilon
            oracle_eps = service.session(sid).mechanism.config.oracle_epsilon
            assert result.epsilon_spent == pytest.approx(oracle_eps)

    def test_unfingerprintable_query_served_uncached(self, cube_dataset):
        """A custom loss the mechanism tolerates must not crash the serve
        layer — it is served, just never cached or deduplicated."""
        from repro.losses.quadratic import QuadraticLoss
        from repro.optimize.projections import L2Ball

        class CallableLoss(QuadraticLoss):
            def __init__(self, domain):
                super().__init__(domain)
                self.hook = lambda x: x

        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        loss = CallableLoss(L2Ball(cube_dataset.universe.dim))
        plain = random_quadratic_family(cube_dataset.universe, 1, rng=0)[0]
        first = service.submit(sid, loss)
        assert first.fingerprint == ""
        second = service.submit(sid, loss)
        assert second.source != "cache"  # uncacheable, answered again
        # and a batch mixing it with normal queries survives intact
        results = service.answer_batch((sid, [plain, loss, plain]))
        assert len(results) == 3
        assert results[2].source == "cache"  # normal dedup still works

    def test_concurrent_duplicate_submits_spend_once(self, cube_dataset):
        """Racing duplicate submissions must collapse onto one mechanism
        round (double-checked cache under the session lock)."""
        import threading
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=3)[0]
        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append(service.submit(sid, loss))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        mechanism_rounds = [r for r in results if r.source != "cache"]
        assert len(mechanism_rounds) == 1
        assert service.session(sid).mechanism.queries_answered == 1

    def test_update_rounds_report_their_cost(self, concentrated_dataset):
        service = PMWService(concentrated_dataset, rng=0)
        sid = open_convex(service, noise_multiplier=0.0)
        loss = random_quadratic_family(concentrated_dataset.universe, 1,
                                       rng=1)[0]
        result = service.submit(sid, loss)
        assert result.source == "update"
        assert result.epsilon_spent > 0.0
        assert not result.free


class TestBudgets:
    def test_budget_armed_and_enforced(self, concentrated_dataset):
        service = PMWService(concentrated_dataset, rng=0)
        sid = open_convex(service, noise_multiplier=0.0,
                          epsilon_budget=1.01)
        # sparse vector took eps=1 at open; the first update should trip
        # the 1.01 odometer
        losses = random_quadratic_family(concentrated_dataset.universe, 4,
                                         rng=1)
        with pytest.raises(PrivacyBudgetExhausted):
            for loss in losses:
                service.submit(sid, loss)

    def test_budget_below_construction_cost_rejected(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        with pytest.raises(PrivacyBudgetExhausted):
            open_convex(service, epsilon_budget=0.5)  # SV alone costs 1.0

    def test_delta_budget_below_construction_cost_rejected(self,
                                                           cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        with pytest.raises(PrivacyBudgetExhausted):
            open_convex(service, delta_budget=1e-9)  # SV delta is 5e-7

    def test_exhausted_budget_refused_before_consuming_update_slot(
            self, concentrated_dataset):
        """Budget exhaustion must be a clean pre-flight refusal: no update
        slot burned, no oracle run, mechanism state untouched."""
        service = PMWService(concentrated_dataset, rng=0)
        sid = open_convex(service, noise_multiplier=0.0,
                          epsilon_budget=1.01)  # SV=1.0; no oracle round fits
        session = service.session(sid)
        loss = random_quadratic_family(concentrated_dataset.universe, 1,
                                       rng=1)[0]
        with pytest.raises(PrivacyBudgetExhausted):
            service.submit(sid, loss)
        mechanism = session.mechanism
        assert mechanism.updates_performed == 0
        assert mechanism.queries_answered == 0
        assert mechanism._sparse_vector.above_count == 0
        assert not mechanism.halted
        # free paths still work
        theta = session.answer_from_hypothesis(loss)
        assert loss.domain.contains(theta, tol=1e-9)

    def test_budget_survives_snapshot_restore(self, cube_dataset, tmp_path):
        """An armed epsilon_budget must stay armed after a snapshot-only
        restore (no ledger): the odometer is part of the state."""
        snap_path = tmp_path / "service.json"
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service, epsilon_budget=1.2, delta_budget=1e-5)
        service.snapshot(snap_path)
        twin = PMWService.restore(cube_dataset, snapshot=snap_path)
        accountant = twin.session(sid).accountant
        assert accountant.epsilon_budget == 1.2
        assert accountant.delta_budget == 1e-5
        with pytest.raises(PrivacyBudgetExhausted):
            accountant.spend(0.5)  # 1.0 (SV) + 0.5 > 1.2

    def test_exhausted_budget_batch_falls_back_to_hypothesis(
            self, cube_dataset):
        """With on_halt="hypothesis", budget exhaustion must not abort the
        batch: every query is served from the free path."""
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service, epsilon_budget=1.0001)  # SV took 1.0
        losses = random_quadratic_family(cube_dataset.universe, 4, rng=2)
        results = service.answer_batch((sid, losses), on_halt="hypothesis")
        assert len(results) == 4
        assert all(r.source == "hypothesis" and r.free for r in results)

    def test_refused_query_leaves_linear_counter_untouched(
            self, cube_dataset):
        """A budget-refused linear query must not burn a stream slot."""
        service = PMWService(cube_dataset, rng=0)
        sid = service.open_session("pmw-linear", alpha=0.01, epsilon=1.0,
                                   delta=1e-6, max_updates=5,
                                   noise_multiplier=0.0,
                                   epsilon_budget=0.5001)  # SV took 0.5
        queries = random_linear_queries(cube_dataset.universe, 3, rng=0)
        mechanism = service.session(sid).mechanism
        for query in queries:
            with pytest.raises(PrivacyBudgetExhausted):
                service.submit(sid, query)
        assert mechanism.queries_answered == 0

    def test_budget_report_mentions_sessions(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        report = service.budget_report()
        assert sid in report and "cache" in report


class TestCrashRecovery:
    def test_ledger_resume_exact_totals(self, cube_dataset, tmp_path):
        ledger_path = tmp_path / "budget.jsonl"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        sid = open_convex(service)
        losses = random_quadratic_family(cube_dataset.universe, 5, rng=4)
        service.answer_batch((sid, losses))
        expected = service.session(sid).accountant.total_basic()
        expected_advanced = service.session(sid).accountant.total_advanced(
            1e-7)
        del service  # crash: object gone, only the journal survives

        resumed = PMWService.restore(cube_dataset, ledger_path=ledger_path)
        accountant = resumed.session(sid).accountant
        assert accountant.total_basic() == expected
        assert accountant.total_advanced(1e-7) == expected_advanced

    def test_ledger_with_shard_layout_params_resumes(self, cube_dataset,
                                                     tmp_path):
        """Journals written while sessions could shard their hypothesis
        carry ``shards``/``histogram_workers`` in the open record's
        params. Resume drops exactly those keys, and totals still equal
        the ledger replay."""
        import json

        from repro.serve.ledger import replay_ledger

        ledger_path = tmp_path / "budget.jsonl"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        sid = open_convex(service)
        losses = random_quadratic_family(cube_dataset.universe, 5, rng=4)
        service.answer_batch((sid, losses))
        expected = service.session(sid).accountant.total_basic()
        del service

        records = [json.loads(line)
                   for line in ledger_path.read_text().splitlines()]
        for record in records:
            if record["kind"] == "open":
                record["params"].update(shards=4, histogram_workers=2)
        ledger_path.write_text("".join(json.dumps(record) + "\n"
                                       for record in records))

        replayed = replay_ledger(ledger_path).accountant_for(sid)
        resumed = PMWService.restore(cube_dataset, ledger_path=ledger_path)
        session = resumed.session(sid)
        assert session.accountant.total_basic() == replayed.total_basic()
        assert session.accountant.total_basic() == expected
        assert "shards" not in session.params
        assert "histogram_workers" not in session.params
        assert session.params["solver_steps"] == 120
        resumed.submit(sid, losses[0])  # the resumed session serves

    def test_snapshot_with_shard_layout_params_restores(self, cube_dataset,
                                                        tmp_path):
        import json

        snap_path = tmp_path / "service.json"
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        losses = random_quadratic_family(cube_dataset.universe, 6, rng=5)
        service.answer_batch((sid, losses[:4]))
        service.snapshot(snap_path)
        state = json.loads(snap_path.read_text())
        for record in state["sessions"].values():
            record["params"].update(shards=4, histogram_workers=2)
            record["mechanism_snapshot"].update(shards=4,
                                                histogram_workers=2)
        snap_path.write_text(json.dumps(state))

        twin = PMWService.restore(cube_dataset, snapshot=snap_path)
        assert "shards" not in twin.session(sid).params
        for loss in losses[4:]:
            a = service.submit(sid, loss)
            b = twin.submit(sid, loss)
            assert a.source == b.source
            np.testing.assert_array_equal(a.value, b.value)

    def test_new_session_with_shard_params_fails(self, cube_dataset):
        service = PMWService(cube_dataset, rng=0)
        with pytest.raises(TypeError, match="shards"):
            open_convex(service, shards=4)

    def test_cold_resume_journals_restarted_sparse_vector_on_first_use(
            self, cube_dataset, tmp_path):
        """A ledger-only resume restarts the sparse-vector interaction;
        its lifetime budget must appear in the accountant AND the journal
        the first time the restarted mechanism serves a paid round —
        while totals at restore time stay exactly pre-crash."""
        ledger_path = tmp_path / "budget.jsonl"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        sid = open_convex(service)
        pre_crash = service.session(sid).accountant.total_basic()
        del service

        resumed = PMWService.restore(cube_dataset, ledger_path=ledger_path)
        session = resumed.session(sid)
        assert session.accountant.total_basic() == pre_crash  # exact
        assert session.pending_spends  # the new SV interaction is owed
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=0)[0]
        resumed.submit(sid, loss)
        total = session.accountant.total_basic()
        sv_eps = session.mechanism.config.sv_epsilon
        assert total.epsilon >= pre_crash.epsilon + sv_eps - 1e-12
        journaled = resumed.ledger.replay().accountant_for(sid)
        assert journaled.total_basic() == total  # journal saw it too

    def test_snapshot_adopted_into_new_ledger(self, cube_dataset, tmp_path):
        """Restoring a ledger-less snapshot WITH a fresh ledger_path must
        journal opens + full histories, so the new ledger alone can
        reconstruct totals at the next restart."""
        snap_path = tmp_path / "service.json"
        new_ledger = tmp_path / "adopted.jsonl"
        service = PMWService(cube_dataset, rng=0)  # no ledger originally
        sid = open_convex(service)
        losses = random_quadratic_family(cube_dataset.universe, 3, rng=9)
        service.answer_batch((sid, losses))
        service.snapshot(snap_path)
        expected = service.session(sid).accountant.total_basic()
        del service

        adopted = PMWService.restore(cube_dataset, snapshot=snap_path,
                                     ledger_path=new_ledger)
        assert adopted.session(sid).accountant.total_basic() == expected
        del adopted
        # second restart, ledger-only: nothing may have been lost
        third = PMWService.restore(cube_dataset, ledger_path=new_ledger)
        assert third.session(sid).accountant.total_basic() == expected

    def test_resumed_service_keeps_journaling(self, cube_dataset, tmp_path):
        ledger_path = tmp_path / "budget.jsonl"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        sid = open_convex(service)
        del service

        resumed = PMWService.restore(cube_dataset, ledger_path=ledger_path,
                                     rng=1)
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=0)[0]
        resumed.submit(sid, loss)
        sid2 = open_convex(resumed)
        assert sid2 != sid  # counter resumed past journaled sessions
        # a third process sees both sessions with full histories
        third = PMWService.restore(cube_dataset, ledger_path=ledger_path)
        assert set(third.session_ids) == {sid, sid2}

    def test_snapshot_restore_rejects_same_size_different_content(
            self, cube_dataset, tmp_path):
        """The snapshot path must pin dataset content like the ledger
        path does — same universe size is not identity."""
        snap_path = tmp_path / "service.json"
        service = PMWService(cube_dataset, rng=0)
        open_convex(service)
        service.snapshot(snap_path)
        other = type(cube_dataset)(cube_dataset.universe,
                                   (cube_dataset.indices + 1)
                                   % cube_dataset.universe.size)
        with pytest.raises(ValidationError, match="different data"):
            PMWService.restore(other, snapshot=snap_path)

    def test_snapshot_restore_full_state(self, cube_dataset, tmp_path):
        snap_path = tmp_path / "service.json"
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service)
        losses = random_quadratic_family(cube_dataset.universe, 6, rng=5)
        service.answer_batch((sid, losses[:4]))
        service.snapshot(snap_path)

        twin = PMWService.restore(cube_dataset, snapshot=snap_path)
        # cache is warm: an already-served loss is free
        hit = twin.submit(sid, losses[0])
        assert hit.source == "cache"
        # continuation matches the original bit-for-bit
        for loss in losses[4:]:
            a = service.submit(sid, loss)
            b = twin.submit(sid, loss)
            assert a.source == b.source
            np.testing.assert_array_equal(a.value, b.value)

    def test_snapshot_plus_ledger_ledger_wins(self, cube_dataset, tmp_path):
        """Spends journaled after the snapshot (the crash window) must
        surface in the restored accountant."""
        ledger_path = tmp_path / "budget.jsonl"
        snap_path = tmp_path / "service.json"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        sid = open_convex(service)
        service.snapshot(snap_path)
        # post-snapshot work, journaled but not snapshotted
        losses = random_quadratic_family(cube_dataset.universe, 4, rng=6)
        service.answer_batch((sid, losses))
        expected = service.session(sid).accountant.total_basic()
        del service

        resumed = PMWService.restore(cube_dataset, snapshot=snap_path,
                                     ledger_path=ledger_path)
        assert resumed.session(sid).accountant.total_basic() == expected

    def test_post_snapshot_sessions_survive_combined_restore(
            self, cube_dataset, tmp_path):
        """Sessions opened after the snapshot exist only in the ledger;
        combined restore must revive them (with exact totals) and must not
        reissue their ids."""
        ledger_path = tmp_path / "budget.jsonl"
        snap_path = tmp_path / "service.json"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        sid_a = open_convex(service)
        service.snapshot(snap_path)
        sid_b = open_convex(service)  # post-snapshot, journal-only
        losses = random_quadratic_family(cube_dataset.universe, 3, rng=8)
        service.answer_batch((sid_b, losses))
        expected_b = service.session(sid_b).accountant.total_basic()
        del service

        resumed = PMWService.restore(cube_dataset, snapshot=snap_path,
                                     ledger_path=ledger_path)
        assert set(resumed.session_ids) == {sid_a, sid_b}
        assert resumed.session(sid_b).accountant.total_basic() == expected_b
        sid_c = open_convex(resumed)
        assert sid_c not in (sid_a, sid_b)

    def test_snapshot_with_live_oracle_param(self, cube_dataset, tmp_path):
        """A session opened with an oracle *instance* still snapshots (the
        param becomes an unjournalable marker); restore then demands
        params_override, and no .tmp file is left behind."""
        import os as _os
        from repro.erm.oracle import NonPrivateOracle
        snap_path = tmp_path / "service.json"
        service = PMWService(cube_dataset, rng=0)
        sid = open_convex(service, oracle=NonPrivateOracle(120))
        service.snapshot(snap_path)
        assert not _os.path.exists(str(snap_path) + ".tmp")
        with pytest.raises(ValidationError, match="params_override"):
            PMWService.restore(cube_dataset, snapshot=snap_path)
        twin = PMWService.restore(
            cube_dataset, snapshot=snap_path,
            params_override={sid: {"oracle": NonPrivateOracle(120)}},
        )
        assert sid in twin.session_ids

    def test_restore_needs_some_source(self, cube_dataset):
        with pytest.raises(ValidationError, match="snapshot"):
            PMWService.restore(cube_dataset)

    def test_empty_custom_cache_is_kept(self, cube_dataset):
        """An empty AnswerCache is falsy (it defines __len__); the service
        must still honor it rather than silently building its own."""
        from repro.serve.cache import AnswerCache
        custom = AnswerCache(max_entries=7)
        service = PMWService(cube_dataset, cache=custom, rng=0)
        assert service.cache is custom

    def test_ledger_resume_rejects_same_size_different_content(
            self, cube_dataset, tmp_path):
        """Universe size alone is not identity: the journaled content
        digest must refuse a different dataset of equal size."""
        ledger_path = tmp_path / "budget.jsonl"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        open_convex(service)
        del service
        other = type(cube_dataset)(cube_dataset.universe,
                                   (cube_dataset.indices + 1)
                                   % cube_dataset.universe.size)
        with pytest.raises(ValidationError, match="different data"):
            PMWService.restore(other, ledger_path=ledger_path)

    def test_ledger_resume_rejects_different_dataset(self, cube_dataset,
                                                     tmp_path):
        """The open record pins the universe size, so a ledger-only resume
        over the wrong dataset fails loudly."""
        from repro.data.builders import signed_cube
        from repro.data.dataset import Dataset
        ledger_path = tmp_path / "budget.jsonl"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        open_convex(service)
        del service
        other = Dataset.uniform_random(signed_cube(4), 50, rng=0)
        with pytest.raises(ValidationError, match="different data"):
            PMWService.restore(other, ledger_path=ledger_path)

    def test_closed_sessions_stay_closed(self, cube_dataset, tmp_path):
        ledger_path = tmp_path / "budget.jsonl"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        sid = open_convex(service)
        service.close_session(sid)
        del service
        resumed = PMWService.restore(cube_dataset, ledger_path=ledger_path)
        assert resumed.session(sid).closed

    def test_ledger_file_grows_before_answers(self, cube_dataset, tmp_path):
        """Write-ahead property: after any submit, the journal already
        contains every spend the accountant knows about."""
        ledger_path = tmp_path / "budget.jsonl"
        service = PMWService(cube_dataset, ledger_path=ledger_path, rng=0)
        sid = open_convex(service)
        losses = random_quadratic_family(cube_dataset.universe, 4, rng=7)
        for loss in losses:
            service.submit(sid, loss)
            journaled = service.ledger.replay().accountant_for(sid)
            live = service.session(sid).accountant
            assert journaled.total_basic() == live.total_basic()
        assert os.path.getsize(ledger_path) > 0
