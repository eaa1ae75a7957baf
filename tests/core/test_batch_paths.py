"""Mechanism-level engine integration: batched paths match scalar ones.

The engine rewiring must be invisible at the mechanism contract level:
``answer_all`` (batched) has to walk the same sparse-vector stream,
consume the same noise, and release the same answers as a loop of
``answer()`` calls with the same seed — on both mechanisms.
"""

import numpy as np
import pytest

from repro.core.pmw_cm import PrivateMWConvex
from repro.core.pmw_linear import PrivateMWLinear
from repro.data import make_classification_dataset
from repro.erm.oracle import NonPrivateOracle
from repro.losses.families import (
    random_linear_queries,
    random_logistic_family,
    random_squared_family,
)

LINEAR_PARAMS = dict(alpha=0.15, epsilon=2.0, delta=1e-6, max_updates=20)
CM_PARAMS = dict(scale=2.0, alpha=0.3, beta=0.1, epsilon=2.0, delta=1e-6,
                 max_updates=5, solver_steps=60)


@pytest.fixture(scope="module")
def task():
    return make_classification_dataset(n=4_000, d=3, universe_size=120,
                                       rng=0)


@pytest.fixture(scope="module")
def queries(task):
    return random_linear_queries(task.universe, 40, rng=1)


class TestLinearBatchedStream:
    def test_matches_scalar_loop(self, task, queries):
        scalar = PrivateMWLinear(task.dataset, rng=7, **LINEAR_PARAMS)
        scalar_answers = [scalar.answer(query) for query in queries]
        batched = PrivateMWLinear(task.dataset, rng=7, **LINEAR_PARAMS)
        batched_answers = batched.answer_all(queries)
        assert scalar.updates_performed == batched.updates_performed
        for a, b in zip(scalar_answers, batched_answers):
            assert a.from_update == b.from_update
            assert a.query_index == b.query_index
            assert a.value == pytest.approx(b.value, abs=1e-10)

    def test_on_halt_hypothesis_serves_tail(self, task, queries):
        mechanism = PrivateMWLinear(task.dataset, rng=3, alpha=0.02,
                                    epsilon=0.4, max_updates=2)
        answers = mechanism.answer_all(queries, on_halt="hypothesis")
        assert len(answers) == len(queries)
        assert mechanism.halted
        tail = answers[-1]
        assert not tail.from_update

    def test_empty_stream(self, task):
        mechanism = PrivateMWLinear(task.dataset, rng=0, **LINEAR_PARAMS)
        assert mechanism.answer_all([]) == []

    def test_already_halted_stream_skips_batch_build(self, task, queries,
                                                     monkeypatch):
        from repro.engine import kernels
        from repro.exceptions import MechanismHalted

        mechanism = PrivateMWLinear(task.dataset, rng=3, alpha=0.02,
                                    epsilon=0.4, max_updates=2)
        mechanism.answer_all(queries, on_halt="hypothesis")
        assert mechanism.halted
        # once halted, a new stream must not pay for the loss matrix or
        # the dead true-answer pass
        def boom(*args, **kwargs):
            raise AssertionError("stack_tables called on a halted stream")

        monkeypatch.setattr(kernels, "stack_tables", boom)
        answers = mechanism.answer_all(queries[:5], on_halt="hypothesis")
        assert len(answers) == 5
        assert not any(answer.from_update for answer in answers)
        with pytest.raises(MechanismHalted):
            mechanism.answer_all(queries[:2], on_halt="raise")


class TestConvexPrewarm:
    @pytest.fixture(scope="class")
    def losses(self, task):
        return (random_logistic_family(task.universe, 6, rng=2)
                + random_squared_family(task.universe, 6, rng=3))

    def _mechanism(self, task, rng=5):
        return PrivateMWConvex(task.dataset,
                               NonPrivateOracle(solver_steps=60),
                               rng=rng, **CM_PARAMS)

    def test_prewarm_fills_cache(self, task, losses):
        mechanism = self._mechanism(task)
        added = mechanism.prewarm(losses)
        assert added == len(losses)
        assert mechanism.prewarm(losses) == 0  # idempotent
        for loss in losses:
            assert mechanism._records[loss.fingerprint()].data is not None

    def test_prewarm_skips_unfingerprintable(self, task, losses):
        mechanism = self._mechanism(task)

        class Opaque:
            pass

        assert mechanism.prewarm([Opaque()]) == 0

    def test_answers_match_lazy_path(self, task, losses):
        lazy = self._mechanism(task)
        lazy_answers = lazy.answer_all(losses, on_halt="hypothesis",
                                       prewarm=False)
        warm = self._mechanism(task)
        warm_answers = warm.answer_all(losses, on_halt="hypothesis",
                                       prewarm=True)
        assert lazy.updates_performed == warm.updates_performed
        for a, b in zip(lazy_answers, warm_answers):
            assert a.from_update == b.from_update
            np.testing.assert_allclose(a.theta, b.theta, atol=1e-10)

    def test_squared_stream_bitwise_with_and_without_prewarm(self, task):
        """The prewarmed lane solves squared GLMs' hypothesis minima in one
        shared-moment pass; the lazy path solves each alone. Both run the
        one closed-form routine, so the released thetas are bitwise
        equal."""
        losses = random_squared_family(task.universe, 8, rng=9)
        runs = [self._mechanism(task).answer_all(
                    losses + losses, on_halt="hypothesis", prewarm=prewarm)
                for prewarm in (False, True)]
        for lazy, warm in zip(*runs):
            assert lazy.from_update == warm.from_update
            assert lazy.theta.tobytes() == warm.theta.tobytes()

    def test_prewarm_respects_cache_limit(self, task):
        mechanism = self._mechanism(task)
        mechanism.DATA_MINIMA_LIMIT = 4
        losses = random_squared_family(task.universe, 10, rng=8)
        # only the stream prefix is computed — work past the LRU bound
        # would be evicted before it is ever used
        assert mechanism.prewarm(losses) == 4
        assert len(mechanism._records) <= 4
        for loss in losses[:4]:
            assert mechanism._records[loss.fingerprint()].data is not None


class TestBoundedMemoryFallback:
    def test_over_limit_stream_skips_stacking_and_agrees(self, task,
                                                         queries,
                                                         monkeypatch):
        from repro.engine import kernels

        reference = PrivateMWLinear(task.dataset, rng=7, **LINEAR_PARAMS)
        expected = reference.answer_all(queries)

        mechanism = PrivateMWLinear(task.dataset, rng=7, **LINEAR_PARAMS)
        mechanism.STACK_COPY_LIMIT_BYTES = 0  # force the per-query path

        def boom(*args, **kwargs):
            raise AssertionError("stack_tables must not copy over limit")

        monkeypatch.setattr(kernels, "stack_tables", boom)
        answers = mechanism.answer_all(queries)
        assert mechanism.updates_performed == reference.updates_performed
        for a, b in zip(answers, expected):
            assert a.from_update == b.from_update
            assert a.value == pytest.approx(b.value, abs=1e-10)

    def test_shared_matrix_families_stack_even_over_limit(self):
        from repro.engine import kernels
        from repro.experiments.workloads import large_universe_workload

        workload = large_universe_workload(universe_size=3_000, k=6,
                                           n=1_000, rng=5)
        mechanism = PrivateMWLinear(workload.dataset, rng=6,
                                    **LINEAR_PARAMS)
        mechanism.STACK_COPY_LIMIT_BYTES = 0
        # zero-copy shared matrix: no copy is made, so the limit does not
        # apply and the matrix path is used
        assert kernels.shared_table_matrix(workload.queries) is not None
        answers = mechanism.answer_all(workload.queries)
        assert len(answers) == len(workload.queries)


class TestPrewarmLruHygiene:
    def test_prewarm_keeps_entries_the_lane_still_needs(self):
        task = make_classification_dataset(n=1_000, d=3, universe_size=60,
                                           rng=20)
        mechanism = PrivateMWConvex(
            task.dataset, NonPrivateOracle(solver_steps=40), rng=21,
            **CM_PARAMS)
        mechanism.DATA_MINIMA_LIMIT = 4
        warm = random_squared_family(task.universe, 1, rng=22)
        mechanism.prewarm(warm)
        hot_key = warm[0].fingerprint()
        fresh = random_squared_family(task.universe, 4, rng=23)
        # the lane re-requests the cached query plus LIMIT fresh ones;
        # eviction must drop a cold fresh entry, not the hot cached one
        mechanism.prewarm(warm + fresh)
        assert mechanism._records[hot_key].data is not None
        assert len(mechanism._records) <= 4


class TestPrewarmGuards:
    def test_incompatible_loss_raises_same_error_as_scalar(self, task):
        from repro.exceptions import LossSpecificationError
        from repro.losses.squared import SquaredLoss
        from repro.optimize.projections import L2Ball

        mechanism = PrivateMWConvex(
            task.dataset, NonPrivateOracle(solver_steps=40), rng=30,
            **CM_PARAMS)
        bad = SquaredLoss(L2Ball(task.universe.dim + 2))
        with pytest.raises(LossSpecificationError, match="incompatible"):
            mechanism.answer(bad)
        with pytest.raises(LossSpecificationError, match="incompatible"):
            mechanism.answer_all([bad])

    def test_exhausted_budget_skips_prewarm(self, task, monkeypatch):
        losses = random_squared_family(task.universe, 4, rng=31)
        mechanism = PrivateMWConvex(
            task.dataset, NonPrivateOracle(solver_steps=40), rng=32,
            **CM_PARAMS)
        # arm a budget the construction spend has already consumed
        mechanism.accountant.epsilon_budget = (
            mechanism.accountant.total_basic().epsilon)

        def boom(*args, **kwargs):
            raise AssertionError("prewarm ran despite exhausted budget")

        monkeypatch.setattr(mechanism, "prewarm", boom)
        answers = mechanism.answer_all(losses, on_halt="hypothesis")
        assert len(answers) == len(losses)
        assert not any(answer.from_update for answer in answers)
