"""Tests for the data side of the PMW round's record table.

Records are keyed by the loss's canonical fingerprint
(:mod:`repro.losses.fingerprint`), so equal-parameter losses share one
entry even across distinct objects — and the keys survive
snapshot/restore.
"""

import numpy as np
import pytest

from repro.core.pmw_cm import PrivateMWConvex
from repro.erm.oracle import NonPrivateOracle
from repro.losses.families import random_quadratic_family


def make_mechanism(dataset, **overrides):
    params = dict(scale=4.0, alpha=0.3, beta=0.1, epsilon=2.0, delta=1e-6,
                  schedule="calibrated", max_updates=10, solver_steps=150,
                  rng=0)
    params.update(overrides)
    return PrivateMWConvex(dataset, NonPrivateOracle(150), **params)


def data_minima(mechanism):
    """Fingerprint -> data-side minimum, read off the record table."""
    return {key: record.data for key, record in mechanism._records.items()
            if record.data is not None}


class TestDataMinimaCache:
    def test_cache_populated_per_distinct_loss(self, cube_dataset):
        mechanism = make_mechanism(cube_dataset)
        losses = random_quadratic_family(cube_dataset.universe, 4, rng=0)
        mechanism.answer_all(losses, on_halt="hypothesis")
        assert len(data_minima(mechanism)) == 4

    def test_repeat_query_reuses_cache(self, cube_dataset):
        mechanism = make_mechanism(cube_dataset)
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=1)[0]
        mechanism.answer(loss)
        cached = data_minima(mechanism)[loss.fingerprint()]
        for _ in range(3):
            mechanism.answer(loss)
        assert data_minima(mechanism)[loss.fingerprint()] is cached

    def test_equal_parameter_losses_share_entry(self, cube_dataset):
        """Rebuilding an identical loss object must hit the same entry —
        the object-identity fragility the fingerprint keys removed."""
        mechanism = make_mechanism(cube_dataset)
        first = random_quadratic_family(cube_dataset.universe, 1, rng=2)[0]
        rebuilt = random_quadratic_family(cube_dataset.universe, 1, rng=2)[0]
        assert first is not rebuilt
        assert first.fingerprint() == rebuilt.fingerprint()
        mechanism.answer(first)
        assert len(data_minima(mechanism)) == 1
        mechanism.answer(rebuilt)
        assert len(data_minima(mechanism)) == 1

    def test_cached_value_is_data_optimum(self, cube_dataset):
        from repro.optimize.minimize import minimize_loss
        mechanism = make_mechanism(cube_dataset)
        loss = random_quadratic_family(cube_dataset.universe, 1, rng=2)[0]
        mechanism.answer(loss)
        direct = minimize_loss(loss, cube_dataset.histogram(), steps=150)
        assert data_minima(mechanism)[loss.fingerprint()].value == pytest.approx(
            direct.value, abs=1e-9
        )

    def test_answers_identical_with_and_without_repeats(self, cube_dataset):
        """Caching must not change behaviour: replaying a stream with
        duplicates gives the same answers as the same seed without cache
        hits (the cached quantity is deterministic)."""
        losses = random_quadratic_family(cube_dataset.universe, 3, rng=3)
        stream = [losses[0], losses[1], losses[0], losses[2], losses[0]]
        a = make_mechanism(cube_dataset, rng=7)
        answers_a = [a.answer(loss).theta for loss in stream]
        b = make_mechanism(cube_dataset, rng=7)
        answers_b = [b.answer(loss).theta for loss in stream]
        np.testing.assert_array_equal(np.stack(answers_a),
                                      np.stack(answers_b))

    def test_cache_survives_snapshot_restore(self, cube_dataset):
        mechanism = make_mechanism(cube_dataset)
        losses = random_quadratic_family(cube_dataset.universe, 3, rng=5)
        mechanism.answer_all(losses, on_halt="hypothesis")
        snapshot = mechanism.snapshot()
        restored = PrivateMWConvex.restore(
            snapshot, cube_dataset, NonPrivateOracle(150)
        )
        assert set(data_minima(restored)) == set(data_minima(mechanism))
        for key, result in data_minima(mechanism).items():
            np.testing.assert_allclose(data_minima(restored)[key].theta,
                                       result.theta)

    def test_unfingerprintable_loss_still_answered(self, cube_dataset):
        """Custom losses with unfingerprintable state (stored callables)
        must still be servable — they just skip the cache."""
        from repro.losses.quadratic import QuadraticLoss
        from repro.optimize.projections import L2Ball

        class CallableLoss(QuadraticLoss):
            def __init__(self, domain):
                super().__init__(domain)
                self.hook = lambda x: x  # not fingerprintable

        mechanism = make_mechanism(cube_dataset)
        loss = CallableLoss(L2Ball(cube_dataset.universe.dim))
        answer = mechanism.answer(loss)
        assert loss.domain.contains(answer.theta, tol=1e-9)
        assert len(mechanism._records) == 0  # no fingerprint record
        # identity fallback: repeats of the same object reuse one entry
        cached = mechanism._data_minima_by_identity[loss]
        mechanism.answer(loss)
        assert mechanism._data_minima_by_identity[loss] is cached
        # and it is GC-bound, like the pre-fingerprint cache
        import gc
        del loss, cached
        gc.collect()
        assert len(mechanism._data_minima_by_identity) == 0

    def test_cache_bounded_by_lru_limit(self, cube_dataset, monkeypatch):
        """Long-running sessions must not grow the cache without bound."""
        monkeypatch.setattr(PrivateMWConvex, "DATA_MINIMA_LIMIT", 3)
        mechanism = make_mechanism(cube_dataset)
        losses = random_quadratic_family(cube_dataset.universe, 6, rng=6)
        mechanism.answer_all(losses, on_halt="hypothesis")
        assert len(mechanism._records) <= 3
        # the most recent fingerprints survive
        assert losses[-1].fingerprint() in data_minima(mechanism)
