"""Tests for the versioned hypothesis core threaded through the mechanisms.

Covers the record table's round replay at an unchanged version, solver
warm-starting, the in-place MW accumulation, version counters across
snapshot/restore, and bitwise restore-then-update agreement with a
never-snapshotted run.
"""

import json

import numpy as np
import pytest

import repro.core.pmw_cm as pmw_cm_module
from repro.core.pmw_cm import PrivateMWConvex
from repro.core.pmw_linear import PrivateMWLinear
from repro.data.dataset import Dataset
from repro.erm.oracle import NonPrivateOracle
from repro.losses.families import random_logistic_family, \
    random_quadratic_family
from repro.losses.linear import LinearQuery


def make_mechanism(dataset, **overrides):
    params = dict(scale=4.0, alpha=0.3, beta=0.1, epsilon=2.0, delta=1e-6,
                  schedule="calibrated", max_updates=10, solver_steps=120,
                  rng=0)
    params.update(overrides)
    return PrivateMWConvex(dataset, NonPrivateOracle(120), **params)


@pytest.fixture
def concentrated_dataset(cube_universe):
    indices = np.concatenate([np.full(240, 5), np.arange(8).repeat(8)[:60]])
    return Dataset(cube_universe, indices)


class TestVersionCounter:
    def test_starts_at_zero_and_tracks_updates(self, concentrated_dataset):
        mechanism = make_mechanism(concentrated_dataset, alpha=0.4,
                                   noise_multiplier=0.0)
        assert mechanism.hypothesis_version == 0
        loss = random_quadratic_family(concentrated_dataset.universe, 1,
                                       rng=5)[0]
        answer = mechanism.answer(loss)
        assert answer.from_update
        assert mechanism.hypothesis_version == mechanism.updates_performed

    def test_bottom_rounds_keep_version(self, cube_dataset):
        mechanism = make_mechanism(cube_dataset)
        losses = random_quadratic_family(cube_dataset.universe, 5, rng=1)
        for loss in losses:
            before = mechanism.hypothesis_version
            answer = mechanism.answer(loss)
            after = mechanism.hypothesis_version
            assert after - before == (1 if answer.from_update else 0)

    def test_legacy_path_reports_update_count(self, cube_dataset):
        mechanism = make_mechanism(cube_dataset, versioned_core=False)
        losses = random_quadratic_family(cube_dataset.universe, 4, rng=1)
        mechanism.answer_all(losses, on_halt="hypothesis")
        assert mechanism.hypothesis_version == mechanism.updates_performed

    def test_frozen_hypothesis_cached_per_version(self, cube_dataset):
        mechanism = make_mechanism(cube_dataset)
        assert mechanism.hypothesis is mechanism.hypothesis


class TestRoundCache:
    def count_solver_calls(self, monkeypatch):
        calls = {"count": 0, "steps": []}
        real = pmw_cm_module.minimize_loss

        def counting(loss, histogram, *, steps=400, start=None):
            calls["count"] += 1
            calls["steps"].append(steps)
            return real(loss, histogram, steps=steps, start=start)

        monkeypatch.setattr(pmw_cm_module, "minimize_loss", counting)
        return calls

    def test_repeat_at_same_version_skips_solver(self, cube_dataset,
                                                 monkeypatch):
        # Logistic has no closed form, so the hypothesis-side solve is a
        # real gradient-descent call the cache must elide.
        labeled = cube_dataset.universe.with_labels(
            np.sign(cube_dataset.universe.points[:, 0]))
        dataset = Dataset(labeled, cube_dataset.indices)
        mechanism = make_mechanism(dataset, scale=2.0)
        loss = random_logistic_family(labeled, 1, rng=2)[0]
        calls = self.count_solver_calls(monkeypatch)
        mechanism.answer(loss)
        solver_calls_after_first = calls["count"]
        assert solver_calls_after_first >= 1
        version = mechanism.hypothesis_version
        mechanism.answer(loss)
        if mechanism.hypothesis_version == version:
            # No update in between: the whole round replays from cache.
            assert calls["count"] == solver_calls_after_first

    def test_round_cache_cleared_on_update(self, concentrated_dataset):
        mechanism = make_mechanism(concentrated_dataset, alpha=0.4,
                                   noise_multiplier=0.0)
        loss = random_quadratic_family(concentrated_dataset.universe, 1,
                                       rng=5)[0]
        answer = mechanism.answer(loss)
        assert answer.from_update
        # The update bumped the version: the round's record is now only a
        # warm start, never a replay.
        version = mechanism.hypothesis_version
        assert all(record.version != version
                   for record in mechanism._records.values())

    def test_answer_from_hypothesis_shares_cache(self, cube_dataset,
                                                 monkeypatch):
        mechanism = make_mechanism(cube_dataset)
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=3)[0]
        first = mechanism.answer(loss)
        if mechanism.hypothesis_version == 0 or not first.from_update:
            calls = self.count_solver_calls(monkeypatch)
            replay = mechanism.answer_from_hypothesis(loss)
            assert calls["count"] == 0
            np.testing.assert_array_equal(replay.theta, first.theta)

    def test_warm_start_uses_reduced_steps(self, concentrated_dataset,
                                           monkeypatch):
        labeled = concentrated_dataset.universe.with_labels(
            np.sign(concentrated_dataset.universe.points[:, 0]))
        dataset = Dataset(labeled, concentrated_dataset.indices)
        mechanism = make_mechanism(dataset, scale=2.0, alpha=0.2,
                                   noise_multiplier=0.0)
        loss = random_logistic_family(labeled, 1, rng=4)[0]
        calls = self.count_solver_calls(monkeypatch)
        first = mechanism.answer(loss)
        assert calls["steps"][0] == mechanism.solver_steps
        if first.from_update:  # version moved: next solve is warm
            calls["steps"].clear()
            mechanism.answer(loss)
            assert calls["steps"][0] == mechanism.warm_solver_steps
            assert mechanism.warm_solver_steps < mechanism.solver_steps

    def test_stale_warm_start_keeps_full_budget(self, cube_dataset,
                                                monkeypatch):
        """A warm start older than WARM_STALENESS_LIMIT versions still
        seeds the solver but must not reduce the step budget (the
        one-step O(eta) near-solution argument has decayed)."""
        labeled = cube_dataset.universe.with_labels(
            np.sign(cube_dataset.universe.points[:, 0]))
        dataset = Dataset(labeled, cube_dataset.indices)
        mechanism = make_mechanism(dataset, scale=2.0)
        loss = random_logistic_family(labeled, 1, rng=6)[0]
        mechanism.answer(loss)  # records a warm start at version 0
        # Age the hypothesis far past the staleness limit.
        for _ in range(mechanism.WARM_STALENESS_LIMIT + 1):
            mechanism._core.apply_update(
                np.zeros(len(labeled)), 0.0)
        calls = self.count_solver_calls(monkeypatch)
        mechanism.answer_from_hypothesis(loss)
        assert calls["steps"] == [mechanism.solver_steps]

    def test_warm_start_disabled_keeps_full_steps(self, cube_dataset):
        mechanism = make_mechanism(cube_dataset, warm_start=False)
        assert mechanism.warm_start is False
        mechanism = make_mechanism(cube_dataset, versioned_core=False)
        assert mechanism.warm_start is False  # requires the core


class TestAnswerAgreement:
    def test_versioned_matches_legacy_same_seed(self, cube_dataset):
        losses = random_quadratic_family(cube_dataset.universe, 8, rng=6)
        stream = losses + losses[:4]

        def run(versioned):
            mechanism = make_mechanism(cube_dataset, rng=11,
                                       versioned_core=versioned,
                                       warm_start=False)
            return mechanism.answer_all(stream, on_halt="hypothesis")

        lazy, eager = run(True), run(False)
        assert [a.from_update for a in lazy] == \
            [a.from_update for a in eager]
        for a, b in zip(lazy, eager):
            np.testing.assert_allclose(a.theta, b.theta, atol=1e-8)


class TestSnapshotRestore:
    def run_stream(self, dataset, losses, *, snapshot_after=None, rng=13):
        mechanism = make_mechanism(dataset, alpha=0.25,
                                   noise_multiplier=0.0, rng=rng)
        answers = []
        for index, loss in enumerate(losses):
            if snapshot_after is not None and index == snapshot_after:
                state = json.loads(json.dumps(mechanism.snapshot()))
                mechanism = PrivateMWConvex.restore(
                    state, dataset, NonPrivateOracle(120))
            answers.append(mechanism.answer(loss))
        return mechanism, answers

    def test_restore_then_update_bitwise(self, concentrated_dataset):
        """A restored run must continue bitwise-identically to one that
        never snapshotted — version counter, lazy log-domain state, warm
        starts, and round cache all round-trip."""
        losses = random_quadratic_family(concentrated_dataset.universe, 4,
                                         rng=7)
        stream = losses + losses  # repeats exercise the caches
        straight, answers_a = self.run_stream(concentrated_dataset, stream)
        resumed, answers_b = self.run_stream(concentrated_dataset, stream,
                                             snapshot_after=5)
        assert resumed.hypothesis_version == straight.hypothesis_version
        assert resumed.updates_performed == straight.updates_performed
        np.testing.assert_array_equal(resumed.hypothesis.weights,
                                      straight.hypothesis.weights)
        for a, b in zip(answers_a, answers_b):
            np.testing.assert_array_equal(a.theta, b.theta)
            assert a.from_update == b.from_update

    def test_snapshot_with_shard_layout_keys_restores_bitwise(
            self, concentrated_dataset):
        """Snapshots written while the hypothesis could be sharded carry
        layout keys at both levels; they restore onto the dense core with
        the same log-weights and continue bitwise."""
        losses = random_quadratic_family(concentrated_dataset.universe, 4,
                                         rng=7)
        mechanism = make_mechanism(concentrated_dataset, alpha=0.25,
                                   noise_multiplier=0.0, rng=13)
        for loss in losses[:3]:
            mechanism.answer(loss)
        state = json.loads(json.dumps(mechanism.snapshot()))
        assert "shards" not in state and "histogram_workers" not in state
        assert set(state["hypothesis_core"]) == {"version", "log_weights"}
        state.update(shards=4, histogram_workers=2)
        state["hypothesis_core"].update(num_shards=4, workers=2)
        restored = PrivateMWConvex.restore(state, concentrated_dataset,
                                           NonPrivateOracle(120))
        assert (restored.snapshot()["hypothesis_core"]
                == mechanism.snapshot()["hypothesis_core"])
        for loss in losses + losses:
            a, b = mechanism.answer(loss), restored.answer(loss)
            np.testing.assert_array_equal(a.theta, b.theta)
            assert a.from_update == b.from_update
        assert restored.updates_performed == mechanism.updates_performed > 0
        np.testing.assert_array_equal(restored.hypothesis.weights,
                                      mechanism.hypothesis.weights)

    def test_shard_knobs_are_rejected(self, cube_dataset):
        for knob in ("shards", "histogram_workers"):
            with pytest.raises(TypeError, match=knob):
                make_mechanism(cube_dataset, **{knob: 2})

    def test_version_counter_round_trips(self, concentrated_dataset):
        losses = random_quadratic_family(concentrated_dataset.universe, 3,
                                         rng=8)
        mechanism, _ = self.run_stream(concentrated_dataset, losses)
        assert mechanism.hypothesis_version > 0
        state = json.loads(json.dumps(mechanism.snapshot()))
        restored = PrivateMWConvex.restore(state, concentrated_dataset,
                                           NonPrivateOracle(120))
        assert restored.hypothesis_version == mechanism.hypothesis_version
        assert restored.versioned_core
        np.testing.assert_array_equal(restored.hypothesis.weights,
                                      mechanism.hypothesis.weights)

    def test_warm_starts_and_round_cache_round_trip(self,
                                                    concentrated_dataset):
        losses = random_quadratic_family(concentrated_dataset.universe, 3,
                                         rng=9)
        mechanism, _ = self.run_stream(concentrated_dataset,
                                       losses + losses)
        state = json.loads(json.dumps(mechanism.snapshot()))
        restored = PrivateMWConvex.restore(state, concentrated_dataset,
                                           NonPrivateOracle(120))
        version = mechanism.hypothesis_version
        assert set(restored._records) == set(mechanism._records)
        for key, record in mechanism._records.items():
            twin = restored._records[key]
            assert twin.version == record.version
            if record.version == version:  # a stale one is never read
                assert twin.loss_on_data == record.loss_on_data
            np.testing.assert_array_equal(twin.theta, record.theta)
            np.testing.assert_array_equal(twin.data.theta, record.data.theta)
            assert twin.data.value == record.data.value

    def test_v1_snapshot_format_accepted(self, cube_dataset):
        """Pre-versioned-core (v1) snapshots restore onto the legacy
        path; the written format is v3 (RLE accountant records)."""
        mechanism = make_mechanism(cube_dataset, versioned_core=False)
        losses = random_quadratic_family(cube_dataset.universe, 2, rng=12)
        mechanism.answer_all(losses, on_halt="hypothesis")
        state = json.loads(json.dumps(mechanism.snapshot()))
        assert state["format"] == "repro.pmw_cm/v3"
        # Simulate a v1 snapshot: old format string, no v2-only fields.
        state["format"] = "repro.pmw_cm/v1"
        for key in ("versioned_core", "warm_start", "hypothesis_core",
                    "warm_starts", "round_cache"):
            state.pop(key, None)
        restored = PrivateMWConvex.restore(state, cube_dataset,
                                           NonPrivateOracle(120))
        assert restored.versioned_core is False
        np.testing.assert_allclose(restored.hypothesis.weights,
                                   mechanism.hypothesis.weights)

    def test_legacy_snapshot_restores_onto_legacy_path(self, cube_dataset):
        mechanism = make_mechanism(cube_dataset, versioned_core=False)
        losses = random_quadratic_family(cube_dataset.universe, 3, rng=10)
        mechanism.answer_all(losses, on_halt="hypothesis")
        state = json.loads(json.dumps(mechanism.snapshot()))
        restored = PrivateMWConvex.restore(state, cube_dataset,
                                           NonPrivateOracle(120))
        assert restored.versioned_core is False
        np.testing.assert_allclose(restored.hypothesis.weights,
                                   mechanism.hypothesis.weights)

    def test_legacy_snapshot_with_shard_keys_restores(self, cube_dataset):
        mechanism = make_mechanism(cube_dataset, versioned_core=False)
        losses = random_quadratic_family(cube_dataset.universe, 3, rng=10)
        mechanism.answer_all(losses, on_halt="hypothesis")
        state = json.loads(json.dumps(mechanism.snapshot()))
        state.update(shards=4, histogram_workers=2)
        restored = PrivateMWConvex.restore(state, cube_dataset,
                                           NonPrivateOracle(120))
        assert restored.versioned_core is False
        np.testing.assert_array_equal(restored.hypothesis.weights,
                                      mechanism.hypothesis.weights)


class TestRestoreReplaysReleasedMinima:
    """A hypothesis minimum released before a snapshot is replayed after
    restore — not solved again from its own warm start, which gives a
    different (equally valid) minimizer."""

    @staticmethod
    def round_trip(mechanism, dataset):
        state = json.loads(json.dumps(mechanism.snapshot()))
        return PrivateMWConvex.restore(state, dataset, NonPrivateOracle(120))

    @staticmethod
    def assert_replayed(mechanism, restored, losses, released):
        for loss, theta in zip(losses, released):
            for twin in (mechanism, restored):
                again = twin.answer_from_hypothesis(loss).theta
                assert again.tobytes() == theta.tobytes(), loss.name

    def test_single_solve(self, classification_task):
        dataset = classification_task.dataset
        losses = random_logistic_family(dataset.universe, 8, rng=21)
        mechanism = make_mechanism(dataset, scale=2.0, alpha=0.1,
                                   solver_steps=60, rng=3)
        for loss in losses[:4]:
            mechanism.answer(loss)
        assert mechanism.hypothesis_version > 0
        released = [mechanism.answer_from_hypothesis(loss).theta
                    for loss in losses[4:]]
        restored = self.round_trip(mechanism, dataset)
        self.assert_replayed(mechanism, restored, losses[4:], released)

    def test_post_halt_lane_batch(self, classification_task):
        dataset = classification_task.dataset
        losses = random_logistic_family(dataset.universe, 8, rng=22)
        mechanism = make_mechanism(dataset, scale=2.0, alpha=0.05,
                                   max_updates=2, solver_steps=60,
                                   noise_multiplier=0.0, rng=4)
        mechanism.answer_all(losses, on_halt="hypothesis")
        assert mechanism.halted
        lane = random_logistic_family(dataset.universe, 6, rng=23)
        mechanism.prewarm(lane)  # a halted mechanism batches the lane
        released = [mechanism.answer_from_hypothesis(loss).theta
                    for loss in lane]
        restored = self.round_trip(mechanism, dataset)
        self.assert_replayed(mechanism, restored, lane, released)


class TestLinearVersionedCore:
    def make_queries(self, universe, k, rng):
        generator = np.random.default_rng(rng)
        return [LinearQuery(generator.random(universe.size), name=f"q{i}")
                for i in range(k)]

    def test_snapshot_round_trips_core(self, cube_universe):
        rng = np.random.default_rng(4)
        dataset = Dataset(cube_universe,
                          rng.choice(cube_universe.size, size=300))
        queries = self.make_queries(cube_universe, 10, rng=5)
        mechanism = PrivateMWLinear(dataset, alpha=0.1, epsilon=2.0,
                                    max_updates=6, rng=6)
        mechanism.answer_all(queries, on_halt="hypothesis")
        state = json.loads(json.dumps(mechanism.snapshot()))
        restored = PrivateMWLinear.restore(state, dataset)
        assert restored.versioned_core
        assert restored.hypothesis_version == mechanism.hypothesis_version
        np.testing.assert_array_equal(restored.hypothesis.weights,
                                      mechanism.hypothesis.weights)
        # Continuing both must stay identical (noise streams restored).
        follow = self.make_queries(cube_universe, 4, rng=7)
        a = mechanism.answer_all(follow, on_halt="hypothesis")
        b = restored.answer_all(follow, on_halt="hypothesis")
        for x, y in zip(a, b):
            assert x.value == y.value
            assert x.from_update == y.from_update

    def test_snapshot_with_shard_layout_keys_restores(self, cube_universe):
        rng = np.random.default_rng(4)
        dataset = Dataset(cube_universe,
                          rng.choice(cube_universe.size, size=300))
        queries = self.make_queries(cube_universe, 10, rng=5)
        mechanism = PrivateMWLinear(dataset, alpha=0.1, epsilon=2.0,
                                    max_updates=6, rng=6)
        mechanism.answer_all(queries, on_halt="hypothesis")
        state = json.loads(json.dumps(mechanism.snapshot()))
        assert "shards" not in state and "histogram_workers" not in state
        state.update(shards=2, histogram_workers=2)
        state["hypothesis_core"].update(num_shards=2, workers=2)
        restored = PrivateMWLinear.restore(state, dataset)
        assert (restored.snapshot()["hypothesis_core"]["log_weights"]
                == mechanism.snapshot()["hypothesis_core"]["log_weights"])
        follow = self.make_queries(cube_universe, 4, rng=7)
        a = mechanism.answer_all(follow, on_halt="hypothesis")
        b = restored.answer_all(follow, on_halt="hypothesis")
        for x, y in zip(a, b):
            assert x.value == y.value
            assert x.from_update == y.from_update

    def test_shard_knobs_are_rejected(self, cube_universe):
        dataset = Dataset(cube_universe, np.arange(cube_universe.size))
        for knob in ("shards", "histogram_workers"):
            with pytest.raises(TypeError, match=knob):
                PrivateMWLinear(dataset, alpha=0.1, **{knob: 2})
