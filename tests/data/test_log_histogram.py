"""Tests for the version-stamped log-domain hypothesis accumulator."""

import json

import numpy as np
import pytest

from repro.data.builders import interval_grid
from repro.data.histogram import Histogram
from repro.data.log_histogram import LogHistogram
from repro.exceptions import ValidationError


@pytest.fixture
def universe():
    return interval_grid(64)


@pytest.fixture
def directions(universe):
    rng = np.random.default_rng(11)
    return [rng.uniform(-1.0, 1.0, universe.size) for _ in range(12)]


def immutable_chain(universe, weights, updates):
    hist = (Histogram.uniform(universe) if weights is None
            else Histogram(universe, weights))
    for direction, eta in updates:
        hist = hist.multiplicative_update(direction, eta)
    return hist


class TestConstruction:
    def test_uniform_starts_at_version_zero(self, universe):
        core = LogHistogram.uniform(universe)
        assert core.version == 0
        np.testing.assert_allclose(core.weights, 1.0 / universe.size)

    def test_weights_validated_like_histogram(self, universe):
        with pytest.raises(ValidationError):
            LogHistogram(universe, np.full(universe.size, -1.0))
        with pytest.raises(ValidationError):
            LogHistogram(universe, np.zeros(universe.size))

    def test_from_histogram(self, universe):
        rng = np.random.default_rng(0)
        hist = Histogram(universe, rng.random(universe.size))
        core = LogHistogram.from_histogram(hist)
        np.testing.assert_allclose(core.weights, hist.weights, atol=1e-15)


class TestVersioning:
    def test_each_update_bumps_version(self, universe, directions):
        core = LogHistogram.uniform(universe)
        for expected, direction in enumerate(directions, start=1):
            assert core.apply_update(direction, 0.3) == expected
        assert core.version == len(directions)

    def test_reads_do_not_bump_version(self, universe, directions):
        core = LogHistogram.uniform(universe)
        core.apply_update(directions[0], 0.3)
        core.dot(directions[1])
        core.freeze()
        core.sample_indices(5, rng=0)
        assert core.version == 1

    def test_bad_direction_does_not_bump(self, universe):
        core = LogHistogram.uniform(universe)
        with pytest.raises(ValidationError):
            core.apply_update(np.ones(3), 0.3)
        with pytest.raises(ValidationError):
            core.apply_update(np.full(universe.size, np.nan), 0.3)
        with pytest.raises(ValidationError):
            core.apply_update(np.ones(universe.size), float("inf"))
        assert core.version == 0


class TestAgreementWithImmutablePath:
    def test_update_chain_matches(self, universe, directions):
        core = LogHistogram.uniform(universe)
        updates = [(d, 0.25) for d in directions]
        for direction, eta in updates:
            core.apply_update(direction, eta)
        reference = immutable_chain(universe, None, updates)
        np.testing.assert_allclose(core.weights, reference.weights,
                                   atol=1e-12)

    def test_dot_matches(self, universe, directions):
        core = LogHistogram.uniform(universe)
        for direction in directions:
            core.apply_update(direction, 0.2)
        reference = immutable_chain(universe, None,
                                    [(d, 0.2) for d in directions])
        probe = np.linspace(0.0, 1.0, universe.size)
        assert core.dot(probe) == pytest.approx(reference.dot(probe),
                                                abs=1e-12)

    def test_zero_weight_support_preserved(self, universe):
        weights = np.ones(universe.size)
        weights[:10] = 0.0
        core = LogHistogram(universe, weights)
        core.apply_update(np.ones(universe.size), 0.5)
        assert (core.weights[:10] == 0.0).all()
        assert core.weights.sum() == pytest.approx(1.0)


class TestFreeze:
    def test_frozen_view_cached_per_version(self, universe, directions):
        core = LogHistogram.uniform(universe)
        first = core.freeze()
        assert core.freeze() is first
        core.apply_update(directions[0], 0.3)
        assert core.freeze() is not first

    def test_frozen_view_survives_later_updates(self, universe, directions):
        core = LogHistogram.uniform(universe)
        core.apply_update(directions[0], 0.3)
        frozen = core.freeze()
        pinned = frozen.weights.copy()
        for direction in directions[1:]:
            core.apply_update(direction, 0.3)
            core.freeze()
        np.testing.assert_array_equal(frozen.weights, pinned)

    def test_frozen_type_is_histogram(self, universe):
        assert type(LogHistogram.uniform(universe).freeze()) is Histogram

    def test_frozen_weights_read_only(self, universe):
        frozen = LogHistogram.uniform(universe).freeze()
        with pytest.raises(ValueError):
            frozen.weights[0] = 1.0

    def test_divergence_helpers_delegate(self, universe, directions):
        core = LogHistogram.uniform(universe)
        core.apply_update(directions[0], 0.3)
        other = Histogram.uniform(universe)
        frozen = core.freeze()
        assert core.kl_divergence(other) == frozen.kl_divergence(other)
        assert core.total_variation(other) == frozen.total_variation(other)
        assert core.l1_distance(other) == frozen.l1_distance(other)


class TestSampling:
    def test_matches_frozen_sampling(self, universe, directions):
        core = LogHistogram.uniform(universe)
        core.apply_update(directions[0], 0.5)
        a = core.sample_indices(100, rng=np.random.default_rng(3))
        b = core.freeze().sample_indices(100, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestAnnihilation:
    def test_materialization_raises_cleanly(self, universe):
        core = LogHistogram.uniform(universe)
        with np.errstate(over="ignore"):
            core.apply_update(np.full(universe.size, -1e200), 1e200)
        with pytest.raises(ValidationError, match="annihilated"):
            core.weights


class TestSnapshotRestore:
    def test_state_round_trips_bitwise(self, universe, directions):
        core = LogHistogram.uniform(universe)
        for direction in directions[:4]:
            core.apply_update(direction, 0.4)
        state = json.loads(json.dumps(core.state_dict()))
        assert set(state) == {"version", "log_weights"}
        restored = LogHistogram.from_state(universe, state)
        assert restored.version == core.version
        np.testing.assert_array_equal(restored.weights, core.weights)

    def test_restore_then_update_matches_uninterrupted(self, universe,
                                                       directions):
        """The raw log-domain state restores exactly, so continuing after
        a snapshot is bitwise the same as never snapshotting."""
        uninterrupted = LogHistogram.uniform(universe)
        for direction in directions:
            uninterrupted.apply_update(direction, 0.35)

        resumed = LogHistogram.uniform(universe)
        for direction in directions[:6]:
            resumed.apply_update(direction, 0.35)
        state = json.loads(json.dumps(resumed.state_dict()))
        resumed = LogHistogram.from_state(universe, state)
        for direction in directions[6:]:
            resumed.apply_update(direction, 0.35)

        assert resumed.version == uninterrupted.version
        np.testing.assert_array_equal(resumed.weights,
                                      uninterrupted.weights)

    def test_minus_infinity_survives_json(self, universe):
        weights = np.ones(universe.size)
        weights[0] = 0.0
        core = LogHistogram(universe, weights)
        state = json.loads(json.dumps(core.state_dict()))
        restored = LogHistogram.from_state(universe, state)
        assert restored.weights[0] == 0.0
        np.testing.assert_array_equal(restored.weights, core.weights)

    def test_rejects_bad_state(self, universe):
        core = LogHistogram.uniform(universe)
        state = core.state_dict()
        wrong_size = dict(state, log_weights=state["log_weights"][:-1])
        with pytest.raises(ValidationError):
            LogHistogram.from_state(universe, wrong_size)
        nan_state = dict(state,
                         log_weights=[float("nan")] * universe.size)
        with pytest.raises(ValidationError):
            LogHistogram.from_state(universe, nan_state)
        negative_version = dict(state, version=-1)
        with pytest.raises(ValidationError):
            LogHistogram.from_state(universe, negative_version)


class TestBufferReuse:
    def test_unescaped_buffer_is_reused(self, universe, directions):
        """Without freezes, successive materializations reuse one buffer."""
        core = LogHistogram.uniform(universe)
        core.apply_update(directions[0], 0.3)
        first = core.weights
        core.apply_update(directions[1], 0.3)
        assert core.weights is first  # same object, new contents

    def test_escaped_buffer_is_not_overwritten(self, universe, directions):
        core = LogHistogram.uniform(universe)
        core.apply_update(directions[0], 0.3)
        frozen_weights = core.freeze().weights
        core.apply_update(directions[1], 0.3)
        assert core.weights is not frozen_weights
