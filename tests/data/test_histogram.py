"""Tests for the Histogram class, including the MW update."""

import numpy as np
import pytest

from repro.data.histogram import Histogram
from repro.data.universe import Universe
from repro.exceptions import ValidationError


@pytest.fixture
def universe():
    return Universe(np.arange(5, dtype=float)[:, None], name="line5")


class TestConstruction:
    def test_uniform(self, universe):
        hist = Histogram.uniform(universe)
        np.testing.assert_allclose(hist.weights, 0.2)

    def test_normalizes(self, universe):
        hist = Histogram(universe, np.array([2.0, 2.0, 2.0, 2.0, 2.0]))
        np.testing.assert_allclose(hist.weights.sum(), 1.0)

    def test_from_counts(self, universe):
        hist = Histogram.from_counts(universe, np.array([1, 0, 3, 0, 0]))
        assert hist[2] == pytest.approx(0.75)

    def test_point_mass(self, universe):
        hist = Histogram.point_mass(universe, 3)
        assert hist[3] == 1.0
        assert hist[0] == 0.0

    def test_rejects_negative(self, universe):
        with pytest.raises(ValidationError, match="non-negative"):
            Histogram(universe, np.array([0.5, -0.5, 0.4, 0.3, 0.3]))

    def test_rejects_zero_mass(self, universe):
        with pytest.raises(ValidationError, match="positive total"):
            Histogram(universe, np.zeros(5))

    def test_rejects_wrong_length(self, universe):
        from repro.exceptions import UniverseError
        with pytest.raises(UniverseError):
            Histogram(universe, np.ones(4))

    def test_weights_read_only(self, universe):
        hist = Histogram.uniform(universe)
        with pytest.raises(ValueError):
            hist.weights[0] = 0.9


class TestDot:
    def test_linear_query_answer(self, universe):
        hist = Histogram(universe, np.array([0.5, 0.5, 0.0, 0.0, 0.0]))
        query = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        assert hist.dot(query) == pytest.approx(0.5)

    def test_shape_mismatch(self, universe):
        with pytest.raises(ValidationError):
            Histogram.uniform(universe).dot(np.ones(3))


class TestMultiplicativeUpdate:
    def test_zero_direction_is_identity(self, universe):
        hist = Histogram(universe, np.array([0.1, 0.2, 0.3, 0.2, 0.2]))
        updated = hist.multiplicative_update(np.zeros(5), eta=0.5)
        np.testing.assert_allclose(updated.weights, hist.weights)

    def test_positive_direction_raises_weight(self, universe):
        hist = Histogram.uniform(universe)
        direction = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        updated = hist.multiplicative_update(direction, eta=1.0)
        assert updated[0] > hist[0]
        assert updated[1] < hist[1]

    def test_matches_closed_form(self, universe):
        hist = Histogram(universe, np.array([0.1, 0.2, 0.3, 0.2, 0.2]))
        direction = np.array([0.5, -0.5, 0.0, 1.0, -1.0])
        eta = 0.3
        expected = hist.weights * np.exp(eta * direction)
        expected /= expected.sum()
        updated = hist.multiplicative_update(direction, eta)
        np.testing.assert_allclose(updated.weights, expected, rtol=1e-12)

    def test_extreme_eta_no_overflow(self, universe):
        hist = Histogram.uniform(universe)
        direction = np.array([1.0, -1.0, 0.5, -0.5, 0.0])
        updated = hist.multiplicative_update(direction, eta=800.0)
        assert np.isfinite(updated.weights).all()
        assert updated.weights.sum() == pytest.approx(1.0)

    def test_preserves_zero_support(self, universe):
        hist = Histogram(universe, np.array([0.0, 0.5, 0.5, 0.0, 0.0]))
        updated = hist.multiplicative_update(np.ones(5), eta=0.2)
        assert updated[0] == 0.0
        assert updated[3] == 0.0


class TestDistances:
    def test_total_variation(self, universe):
        a = Histogram.point_mass(universe, 0)
        b = Histogram.point_mass(universe, 1)
        assert a.total_variation(b) == pytest.approx(1.0)

    def test_l1_of_self_is_zero(self, universe):
        hist = Histogram.uniform(universe)
        assert hist.l1_distance(hist) == 0.0

    def test_kl_self_zero(self, universe):
        hist = Histogram(universe, np.array([0.1, 0.2, 0.3, 0.2, 0.2]))
        assert hist.kl_divergence(hist) == pytest.approx(0.0, abs=1e-12)

    def test_kl_infinite_off_support(self, universe):
        p = Histogram.point_mass(universe, 0)
        q = Histogram.point_mass(universe, 1)
        assert p.kl_divergence(q) == float("inf")

    def test_kl_vs_uniform_bounded_by_log_size(self, universe):
        # KL(D || uniform) <= log |X| for any D — the MW potential bound.
        uniform = Histogram.uniform(universe)
        worst = Histogram.point_mass(universe, 2)
        assert worst.kl_divergence(uniform) <= np.log(universe.size) + 1e-12


class TestSampling:
    def test_sample_indices_shape(self, universe):
        hist = Histogram.uniform(universe)
        indices = hist.sample_indices(50, rng=0)
        assert indices.shape == (50,)
        assert indices.min() >= 0 and indices.max() < 5

    def test_sample_respects_support(self, universe):
        hist = Histogram.point_mass(universe, 4)
        indices = hist.sample_indices(20, rng=0)
        assert (indices == 4).all()

    def test_negative_n_rejected(self, universe):
        with pytest.raises(ValidationError):
            Histogram.uniform(universe).sample_indices(-1)


class TestSamplingDistribution:
    """The cached-CDF inverse sampler must match choice(p=...) exactly in
    law — including never emitting zero-probability outcomes."""

    def test_trailing_zero_weight_never_sampled(self, universe):
        weights = np.array([0.3, 0.3, 0.2, 0.2, 0.0])
        hist = Histogram(universe, weights)
        indices = hist.sample_indices(50_000, rng=0)
        assert not np.any(indices == 4)

    def test_interior_zero_weight_never_sampled(self, universe):
        weights = np.array([0.5, 0.0, 0.25, 0.0, 0.25])
        hist = Histogram(universe, weights)
        indices = hist.sample_indices(50_000, rng=1)
        assert not np.any(indices == 1)
        assert not np.any(indices == 3)

    def test_empirical_law_matches_weights(self, universe):
        rng = np.random.default_rng(7)
        weights = rng.dirichlet(np.ones(universe.size))
        hist = Histogram(universe, weights)
        indices = hist.sample_indices(200_000, rng=2)
        empirical = np.bincount(indices, minlength=universe.size) / indices.size
        np.testing.assert_allclose(empirical, hist.weights, atol=0.01)

    def test_cdf_cached_across_calls(self, universe):
        hist = Histogram.uniform(universe)
        hist.sample_indices(10, rng=0)
        first = hist._cdf
        hist.sample_indices(10, rng=1)
        assert hist._cdf is first


class TestEdgeCases:
    """Zero-weight bins and the single-bin universe (degenerate but legal)."""

    @pytest.fixture
    def point(self):
        return Universe(np.zeros((1, 1)), name="point")

    def test_single_bin_update_is_identity(self, point):
        hist = Histogram(point, np.array([3.0]))
        updated = hist.multiplicative_update(np.array([-5.0]), 2.0)
        np.testing.assert_allclose(updated.weights, [1.0])

    def test_single_bin_divergences_vanish(self, point):
        one = Histogram(point, np.array([1.0]))
        other = Histogram(point, np.array([7.0]))
        assert one.kl_divergence(other) == 0.0
        assert one.total_variation(other) == 0.0
        assert one.l1_distance(other) == 0.0

    def test_single_bin_sampling(self, point):
        hist = Histogram(point, np.array([1.0]))
        np.testing.assert_array_equal(hist.sample_indices(4, rng=0), 0)

    def test_kl_ignores_shared_zero_bins(self, universe):
        p = Histogram(universe, np.array([0.5, 0.5, 0.0, 0.0, 0.0]))
        q = Histogram(universe, np.array([0.25, 0.75, 0.0, 0.0, 0.0]))
        expected = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
        assert p.kl_divergence(q) == pytest.approx(expected)

    def test_kl_finite_when_other_covers_support(self, universe):
        p = Histogram(universe, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        q = Histogram.uniform(universe)
        assert p.kl_divergence(q) == pytest.approx(np.log(5.0))
        assert q.kl_divergence(p) == np.inf

    def test_total_variation_with_zero_weight_bins(self, universe):
        p = Histogram(universe, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        q = Histogram(universe, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
        assert p.total_variation(q) == pytest.approx(1.0)

    def test_update_keeps_zero_bins_at_zero(self, universe):
        hist = Histogram(universe, np.array([0.4, 0.0, 0.6, 0.0, 0.0]))
        updated = hist.multiplicative_update(np.ones(5), 3.0)
        assert updated.weights[1] == 0.0
        assert np.all(updated.weights[3:] == 0.0)
        np.testing.assert_allclose(updated.weights.sum(), 1.0)


class TestCdfCacheInvalidation:
    """Regression: the cached sampling CDF must never outlive its weights.

    ``multiplicative_update`` returns a *new* object; if the cached CDF
    were carried over (or shared by reference), samples would follow the
    pre-update distribution forever.
    """

    def test_update_returns_instance_with_cold_cache(self, universe):
        hist = Histogram(universe, np.array([1.0, 1.0, 1.0, 1.0, 1.0]))
        hist.sample_indices(10, rng=0)  # warm the original's CDF
        assert hist._cdf is not None
        updated = hist.multiplicative_update(np.array(
            [10.0, -10.0, -10.0, -10.0, -10.0]), 1.0)
        assert updated._cdf is None  # fresh instance: cache starts cold

    def test_caches_never_shared_between_instances(self, universe):
        hist = Histogram(universe, np.ones(5))
        hist.sample_indices(10, rng=0)
        updated = hist.multiplicative_update(np.array(
            [5.0, -5.0, -5.0, -5.0, -5.0]), 1.0)
        updated.sample_indices(10, rng=0)
        assert updated._cdf is not hist._cdf
        # and the original's cache still matches the original weights
        np.testing.assert_allclose(np.diff(np.concatenate(([0.0], hist._cdf))),
                                   hist.weights, atol=1e-15)

    def test_samples_follow_updated_weights(self, universe):
        hist = Histogram(universe, np.ones(5))
        hist.sample_indices(100, rng=0)
        # massive update: essentially all mass onto bin 0
        updated = hist.multiplicative_update(
            np.array([1.0, 0.0, 0.0, 0.0, 0.0]), 50.0)
        sample = updated.sample_indices(2000, rng=1)
        assert np.mean(sample == 0) > 0.99
        # the original still samples its own (uniform) law
        original = hist.sample_indices(5000, rng=2)
        counts = np.bincount(original, minlength=5) / 5000
        np.testing.assert_allclose(counts, 0.2, atol=0.05)


class TestCompatibilityCheck:
    """Regression: two *different* universes of equal size must not pass."""

    def test_same_size_different_points_rejected(self, universe):
        from repro.exceptions import UniverseError

        shifted = Universe(np.asarray(universe.points) + 1.0, name="shifted")
        a = Histogram.uniform(universe)
        b = Histogram.uniform(shifted)
        for op in (a.total_variation, a.l1_distance, a.kl_divergence):
            with pytest.raises(UniverseError):
                op(b)

    def test_equal_content_distinct_objects_accepted(self, universe):
        rebuilt = Universe(np.array(universe.points), name="rebuilt")
        a = Histogram.uniform(universe)
        b = Histogram.uniform(rebuilt)
        assert a.total_variation(b) == pytest.approx(0.0)

    def test_label_mismatch_rejected(self, universe):
        from repro.exceptions import UniverseError

        labeled = universe.with_labels(np.ones(len(universe)))
        a = Histogram.uniform(universe)
        b = Histogram.uniform(labeled)
        with pytest.raises(UniverseError):
            a.l1_distance(b)


class TestMassAnnihilation:
    """Regression: annihilating every positive weight must raise clearly,
    not crash inside ``np.max`` on an empty array."""

    def test_dense_update_raises_validation_error(self, universe):
        hist = Histogram.uniform(universe)
        # eta * direction overflows to -inf on every element.
        with np.errstate(over="ignore"), pytest.raises(
                ValidationError, match="annihilated"):
            hist.multiplicative_update(np.full(len(universe), -1e200), 1e200)

    def test_extreme_but_survivable_update_still_works(self, universe):
        """One element surviving means no error and a point mass there."""
        direction = np.full(len(universe), -1e200)
        direction[2] = 0.0
        with np.errstate(over="ignore"):
            updated = Histogram.uniform(universe).multiplicative_update(
                direction, 1e200)
        assert updated.weights[2] == pytest.approx(1.0)
