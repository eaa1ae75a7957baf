"""Property tests: the batched engine must agree with the scalar path.

The engine's contract (see :mod:`repro.engine`) is that every kernel
computes the *same* quantity as the per-query code through a reassociated
product — so batched and scalar answers may differ only by floating-point
associativity. These tests pin that divergence below 1e-10 over
randomized weights, parameters, and query structure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data import make_classification_dataset
from repro.data.histogram import Histogram
from repro.engine import batch_answers, batch_data_minima, batch_loss_on
from repro.losses.families import (
    linear_queries_as_cm,
    random_linear_queries,
    random_logistic_family,
    random_squared_family,
)
from repro.optimize.minimize import minimize_loss

TASK = make_classification_dataset(n=1_000, d=3, universe_size=40, rng=0)
SIZE = TASK.universe.size

weight_arrays = hnp.arrays(
    dtype=float, shape=SIZE,
    elements=st.floats(min_value=0.0, max_value=50.0),
).filter(lambda w: w.sum() > 1e-6)

seeds = st.integers(min_value=0, max_value=2**20)


def _histogram(weights):
    return Histogram(TASK.universe, weights)


class TestScalarBatchedAgreement:
    @given(weights=weight_arrays, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_linear_answers(self, weights, seed):
        histogram = _histogram(weights)
        queries = random_linear_queries(TASK.universe, 6, rng=seed)
        batched = batch_answers(queries, histogram)
        scalar = [histogram.dot(query.table) for query in queries]
        np.testing.assert_allclose(batched, scalar, atol=1e-10)

    @given(weights=weight_arrays, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_glm_loss_values(self, weights, seed):
        histogram = _histogram(weights)
        losses = (random_logistic_family(TASK.universe, 3, rng=seed)
                  + random_squared_family(TASK.universe, 3, rng=seed + 1))
        rng = np.random.default_rng(seed)
        thetas = [rng.standard_normal(loss.domain.dim) * 0.5
                  for loss in losses]
        batched = batch_loss_on(losses, thetas, histogram)
        scalar = [loss.loss_on(theta, histogram)
                  for loss, theta in zip(losses, thetas)]
        np.testing.assert_allclose(batched, scalar, atol=1e-10)

    @given(weights=weight_arrays, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_linear_cm_values_and_minima(self, weights, seed):
        histogram = _histogram(weights)
        losses = linear_queries_as_cm(
            random_linear_queries(TASK.universe, 4, rng=seed))
        rng = np.random.default_rng(seed)
        thetas = [np.array([rng.random()]) for _ in losses]
        batched = batch_loss_on(losses, thetas, histogram)
        scalar = [loss.loss_on(theta, histogram)
                  for loss, theta in zip(losses, thetas)]
        np.testing.assert_allclose(batched, scalar, atol=1e-10)
        minima = batch_data_minima(losses, histogram)
        for loss, result in zip(losses, minima):
            reference = minimize_loss(loss, histogram)
            np.testing.assert_allclose(result.theta, reference.theta,
                                       atol=1e-10)
            assert result.value == pytest.approx(reference.value,
                                                 abs=1e-10)

    @given(weights=weight_arrays, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_squared_minima(self, weights, seed):
        histogram = _histogram(weights)
        losses = random_squared_family(TASK.universe, 4, rng=seed)
        minima = batch_data_minima(losses, histogram)
        for loss, result in zip(losses, minima):
            reference = minimize_loss(loss, histogram)
            np.testing.assert_allclose(result.theta, reference.theta,
                                       atol=1e-10)
            assert result.value == pytest.approx(reference.value,
                                                 abs=1e-10)

