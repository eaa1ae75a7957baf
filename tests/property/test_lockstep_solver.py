"""Property tests: the lockstep GLM solver against the scalar solver.

:func:`repro.optimize.lockstep.lockstep_minimize` must run the same
iteration as ``projected_gradient_descent`` over ``gradient_on`` /
``loss_on`` (the path ``minimize_loss`` took for every GLM before the
lockstep solver existed), keep each column independent of the others,
and fail exactly where the scalar path fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data import make_classification_dataset
from repro.data.dataset import Dataset
from repro.data.histogram import Histogram
from repro.data.universe import Universe
from repro.engine import batch_data_minima
from repro.erm.noisy_sgd import NoisyGradientDescentOracle
from repro.exceptions import LossSpecificationError, ValidationError
from repro.losses.families import (
    random_hinge_family,
    random_logistic_family,
    random_squared_family,
)
from repro.losses.hinge import HingeLoss, HuberLoss
from repro.losses.logistic import LogisticLoss
from repro.optimize.gradient_descent import projected_gradient_descent
from repro.optimize.lockstep import lockstep_minimize
from repro.optimize.minimize import minimize_loss
from repro.optimize.projections import Box, L2Ball

TASK = make_classification_dataset(n=1_000, d=4, universe_size=60, rng=0)
UNIVERSE = TASK.universe
SIZE = UNIVERSE.size
STEPS = 120

weight_arrays = hnp.arrays(
    dtype=float, shape=SIZE,
    elements=st.floats(min_value=0.0, max_value=50.0),
).filter(lambda w: w.sum() > 1e-6)
seeds = st.integers(min_value=0, max_value=2**20)
families = st.sampled_from(["logistic", "hinge", "huber"])


def _histogram(weights):
    return Histogram(UNIVERSE, weights)


def _family(name, k, seed, universe=UNIVERSE):
    if name == "logistic":
        return random_logistic_family(universe, k, rng=seed)
    if name == "hinge":
        return random_hinge_family(universe, k, rng=seed)
    rng = np.random.default_rng(seed)
    return [HuberLoss(L2Ball(universe.dim, radius=float(rng.uniform(0.5, 1.5))),
                      delta=float(rng.uniform(0.2, 1.0)),
                      rotation=loss.rotation)
            for loss in random_logistic_family(universe, k, rng=seed)]


def _mixed(k, seed):
    losses = (_family("logistic", k, seed) + _family("hinge", k, seed + 1)
              + _family("huber", k, seed + 2))
    np.random.default_rng(seed).shuffle(losses)
    return losses


def _scalar(loss, histogram, *, steps=STEPS, start=None):
    """The pre-lockstep ``minimize_loss`` path for a GLM, verbatim."""
    lipschitz = loss.lipschitz_bound if loss.lipschitz_bound else 1.0
    theta = projected_gradient_descent(
        lambda point: loss.gradient_on(point, histogram), loss.domain,
        steps=steps, lipschitz=lipschitz,
        strong_convexity=loss.strong_convexity, start=start,
        objective=lambda point: loss.loss_on(point, histogram))
    return theta, float(loss.loss_on(theta, histogram))


class TestAgainstScalarSolver:
    @given(weights=weight_arrays, seed=seeds, family=families)
    @settings(max_examples=25, deadline=None)
    def test_cold_objective_gap(self, weights, seed, family):
        histogram = _histogram(weights)
        losses = _family(family, 3, seed)
        results = lockstep_minimize(losses, histogram, steps=STEPS)
        for loss, result in zip(losses, results):
            _, value = _scalar(loss, histogram)
            assert abs(result.value - value) <= 1e-9
            assert abs(loss.loss_on(result.theta, histogram)
                       - result.value) <= 1e-12
            assert loss.domain.contains(result.theta)

    @given(weights=weight_arrays, seed=seeds, family=families)
    @settings(max_examples=25, deadline=None)
    def test_warm_objective_gap(self, weights, seed, family):
        histogram = _histogram(weights)
        losses = _family(family, 3, seed)
        rng = np.random.default_rng(seed)
        starts = [rng.standard_normal(UNIVERSE.dim) for _ in losses]
        budgets = [int(b) for b in rng.integers(1, 60, size=len(losses))]
        results = lockstep_minimize(losses, histogram, steps=budgets,
                                    starts=starts)
        for loss, start, budget, result in zip(losses, starts, budgets,
                                               results):
            _, value = _scalar(loss, histogram, steps=budget, start=start)
            assert abs(result.value - value) <= 1e-9

    @given(weights=weight_arrays, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_minimize_loss_routes_glms_through_lockstep(self, weights, seed):
        histogram = _histogram(weights)
        for loss in _mixed(1, seed):
            routed = minimize_loss(loss, histogram, steps=STEPS)
            direct = lockstep_minimize([loss], histogram, steps=STEPS)[0]
            assert routed.exact is False
            np.testing.assert_array_equal(routed.theta, direct.theta)
            assert routed.value == direct.value


class TestColumnIndependence:
    @given(weights=weight_arrays, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_width_one_matches_width_k(self, weights, seed):
        histogram = _histogram(weights)
        losses = _mixed(2, seed)
        wide = lockstep_minimize(losses, histogram, steps=STEPS)
        for loss, result in zip(losses, wide):
            alone = lockstep_minimize([loss], histogram, steps=STEPS)[0]
            assert abs(alone.value - result.value) <= 1e-12
            np.testing.assert_allclose(alone.theta, result.theta, atol=1e-6)

    @given(weights=weight_arrays, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_reordering_columns_is_bitwise_neutral(self, weights, seed):
        histogram = _histogram(weights)
        losses = _mixed(3, seed)
        rng = np.random.default_rng(seed)
        starts = [None if rng.random() < 0.5
                  else rng.standard_normal(UNIVERSE.dim) for _ in losses]
        budgets = [int(b) for b in rng.integers(1, STEPS, size=len(losses))]
        base = lockstep_minimize(losses, histogram, steps=budgets,
                                 starts=starts)
        order = rng.permutation(len(losses))
        shuffled = lockstep_minimize(
            [losses[j] for j in order], histogram,
            steps=[budgets[j] for j in order],
            starts=[starts[j] for j in order])
        for j, result in zip(order, shuffled):
            np.testing.assert_array_equal(result.theta, base[j].theta)
            assert result.value == base[j].value

    @given(weights=weight_arrays, seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_engine_batch_matches_single_solves(self, weights, seed):
        histogram = _histogram(weights)
        losses = (_mixed(2, seed)
                  + random_squared_family(UNIVERSE, 2, rng=seed + 3))
        batched = batch_data_minima(losses, histogram, solver_steps=STEPS)
        for loss, result in zip(losses, batched):
            single = minimize_loss(loss, histogram, steps=STEPS)
            assert abs(single.value - result.value) <= 1e-10
            np.testing.assert_allclose(single.theta, result.theta,
                                       atol=1e-8)


def _error(call):
    try:
        call()
    except Exception as error:  # noqa: BLE001 - the type is the result
        return type(error)
    return None


class TestErrorParity:
    """Every input the scalar path rejects, the lockstep path rejects
    with the same exception type; what it accepts, lockstep accepts."""

    def _both(self, loss, histogram):
        scalar = _error(lambda: _scalar(loss, histogram, steps=5))
        routed = _error(lambda: minimize_loss(loss, histogram, steps=5))
        batched = _error(lambda: batch_data_minima([loss, loss], histogram,
                                                   solver_steps=5))
        return scalar, routed, batched

    @pytest.mark.parametrize("family", ["logistic", "hinge", "huber"])
    def test_unlabeled_universe(self, family):
        bare = Universe(UNIVERSE.points)
        histogram = Histogram(bare, np.full(SIZE, 1.0 / SIZE))
        loss = _family(family, 1, 5)[0]
        scalar, routed, batched = self._both(loss, histogram)
        assert scalar is LossSpecificationError
        assert routed is scalar and batched is scalar

    @pytest.mark.parametrize("family", ["logistic", "hinge", "huber"])
    def test_labels_outside_plus_minus_one(self, family):
        labels = np.where(UNIVERSE.labels > 0, 2.0, 0.0)
        odd = Universe(UNIVERSE.points, labels)
        histogram = Histogram(odd, np.full(SIZE, 1.0 / SIZE))
        loss = _family(family, 1, 6)[0]
        scalar, routed, batched = self._both(loss, histogram)
        # Logistic and hinge reject such labels; Huber regresses on them.
        expected = None if family == "huber" else LossSpecificationError
        assert scalar is expected
        assert routed is expected and batched is expected

    @pytest.mark.parametrize("family", ["logistic", "hinge", "huber"])
    def test_wrong_dimension(self, family):
        loss = _family(family, 1, 7)[0]
        wide = Universe(np.hstack([UNIVERSE.points, UNIVERSE.points]),
                        UNIVERSE.labels)
        histogram = Histogram(wide, np.full(SIZE, 1.0 / SIZE))
        scalar, routed, batched = self._both(loss, histogram)
        assert scalar is LossSpecificationError
        assert routed is scalar and batched is scalar

    def test_wrong_start_dimension(self):
        loss = _family("logistic", 1, 8)[0]
        histogram = TASK.dataset.histogram()
        start = np.zeros(UNIVERSE.dim + 1)
        scalar = _error(lambda: _scalar(loss, histogram, steps=5,
                                        start=start))
        routed = _error(lambda: minimize_loss(loss, histogram, steps=5,
                                              start=start))
        assert scalar is ValidationError and routed is scalar

    @pytest.mark.parametrize("cls", [LogisticLoss, HingeLoss])
    def test_non_ball_domain_falls_back(self, cls):
        loss = cls(Box.symmetric(UNIVERSE.dim, 0.5))
        histogram = TASK.dataset.histogram()
        theta, value = _scalar(loss, histogram, steps=30)
        for result in (minimize_loss(loss, histogram, steps=30),
                       batch_data_minima([loss], histogram,
                                         solver_steps=30)[0]):
            np.testing.assert_array_equal(result.theta, theta)
            assert result.value == value
        with pytest.raises(ValidationError):
            lockstep_minimize([loss], histogram, steps=30)

    def test_subclass_with_own_link_falls_back(self):
        class Shifted(LogisticLoss):
            def link(self, margins, labels):
                return super().link(margins, labels) + 1.0

        loss = Shifted(L2Ball(UNIVERSE.dim))
        histogram = TASK.dataset.histogram()
        theta, value = _scalar(loss, histogram, steps=30)
        result = minimize_loss(loss, histogram, steps=30)
        np.testing.assert_array_equal(result.theta, theta)
        assert result.value == value


@given(seed=seeds, family=st.sampled_from(["logistic", "hinge"]))
@settings(max_examples=10, deadline=None)
def test_noisy_gd_oracle_keeps_its_noise_stream(seed, family):
    """The oracle's fused gradient leaves its noise draws untouched: with
    the same generator it lands where the per-point-gradient path does."""
    class Plain(type(_family(family, 1, seed)[0])):
        """Same link, but not an exact fused-link type: scalar path."""

    fused = _family(family, 1, seed)[0]
    plain = Plain(fused.domain, rotation=fused.rotation)
    dataset = Dataset(UNIVERSE, TASK.dataset.indices)
    oracle = NoisyGradientDescentOracle(epsilon=1.0, delta=1e-6, steps=40)
    got = oracle.answer(fused, dataset, rng=seed)
    want = oracle.answer(plain, dataset, rng=seed)
    np.testing.assert_allclose(got, want, atol=1e-9)
