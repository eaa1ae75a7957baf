"""Serving-layer engine integration: batch lanes are engine-prewarmed."""

import json

import numpy as np
import pytest

from repro.data import make_classification_dataset
from repro.losses.families import random_squared_family
from repro.serve.planner import plan_batch
from repro.serve.service import PMWService

PARAMS = dict(scale=2.0, alpha=0.3, beta=0.1, epsilon=2.0, delta=1e-6,
              max_updates=5, solver_steps=60, oracle="non-private")


@pytest.fixture
def task():
    return make_classification_dataset(n=2_000, d=3, universe_size=80,
                                       rng=0)


@pytest.fixture
def losses(task):
    return random_squared_family(task.universe, 8, rng=1)


def test_batch_serving_prewarms_mechanism_cache(task, losses):
    service = PMWService(task.dataset, rng=2)
    sid = service.open_session("pmw-convex", **PARAMS)
    service.answer_batch((sid, losses))
    mechanism = service.session(sid).mechanism
    # every distinct loss in the lane hit the batched data-minima pass
    for loss in losses:
        assert mechanism._records[loss.fingerprint()].data is not None


def test_batch_serving_matches_sequential_submits(task, losses):
    batched = PMWService(task.dataset, rng=3)
    sid_b = batched.open_session("pmw-convex", **PARAMS)
    batch_results = batched.answer_batch((sid_b, losses))

    sequential = PMWService(task.dataset, rng=3)
    sid_s = sequential.open_session("pmw-convex", **PARAMS)
    seq_results = [sequential.submit(sid_s, loss, on_halt="hypothesis")
                   for loss in losses]

    for a, b in zip(batch_results, seq_results):
        assert a.source == b.source
        np.testing.assert_allclose(np.asarray(a.value),
                                   np.asarray(b.value), atol=1e-10)


def test_lane_hypothesis_minima_match_scalar(task):
    """Prewarm registers the lane for hypothesis-side batching; the
    batched shared-moment solves must agree with the scalar dispatch."""
    from repro.erm.oracle import NonPrivateOracle
    from repro.core.pmw_cm import PrivateMWConvex

    losses = random_squared_family(task.universe, 6, rng=11)
    kwargs = dict(scale=2.0 * max(loss.scale_bound() for loss in losses),
                  alpha=0.3, beta=0.1, epsilon=2.0, delta=1e-6,
                  max_updates=5, solver_steps=60, noise_multiplier=0.0)
    batched = PrivateMWConvex(task.dataset, NonPrivateOracle(60), rng=13,
                              **kwargs)
    scalar = PrivateMWConvex(task.dataset, NonPrivateOracle(60), rng=13,
                             **kwargs)
    batched.prewarm(losses)
    assert list(batched._lane_minima) == [loss.fingerprint()
                                          for loss in losses]
    for loss in losses:
        a = batched.answer(loss)
        b = scalar.answer(loss)
        assert a.from_update == b.from_update
        np.testing.assert_allclose(a.theta, b.theta, atol=1e-10)
    # the batch pass actually populated current-version records
    version = batched.hypothesis_version
    assert any(record.version == version
               for record in batched._records.values())


def test_linear_prewarm_matches_scalar_rounds(task):
    """A PMW-linear lane served through ``answer_batch`` (which prewarms
    its lane) releases bitwise the answers of one submit per query:
    every round's true answer is the same scalar dot."""
    from repro.losses.families import random_linear_queries

    queries = random_linear_queries(task.universe, 32, rng=5)
    kwargs = dict(alpha=0.05, epsilon=1.5, delta=1e-6, max_updates=8)
    laned = PMWService(task.dataset, rng=6)
    sid = laned.open_session("pmw-linear", **kwargs)
    assert laned.session(sid).prewarm(queries) == 0  # no hook: a no-op
    lane_results = laned.answer_batch((sid, queries))
    single = PMWService(task.dataset, rng=6)
    sid = single.open_session("pmw-linear", **kwargs)
    single_results = [single.submit(sid, query, on_halt="hypothesis")
                      for query in queries]
    assert any(result.source == "update" for result in single_results)
    for got, want in zip(lane_results, single_results):
        assert got.source == want.source
        assert got.value == want.value


def test_linear_restore_mid_stream_matches_uninterrupted(task):
    """A PMW-linear run snapshotted mid-stream and restored continues
    bitwise like the uninterrupted run, prewarmed lane or not."""
    from repro.core.pmw_linear import PrivateMWLinear
    from repro.losses.families import random_linear_queries
    from repro.serve.session import Session

    queries = random_linear_queries(task.universe, 32, rng=8)
    kwargs = dict(alpha=0.05, epsilon=1.5, delta=1e-6, max_updates=32)

    def serve(restore_at=None):
        mechanism = PrivateMWLinear(task.dataset, rng=9, **kwargs)
        Session("linear", mechanism).prewarm(queries)
        answers = []
        for index, query in enumerate(queries):
            if index == restore_at:
                state = json.loads(json.dumps(mechanism.snapshot()))
                mechanism = PrivateMWLinear.restore(state, task.dataset)
            answers.append(mechanism.answer(query))
        return answers

    straight, resumed = serve(), serve(restore_at=12)
    assert any(answer.from_update for answer in straight[12:])
    for a, b in zip(straight, resumed):
        assert (a.value, a.from_update, a.update_index) == \
            (b.value, b.from_update, b.update_index)


def test_plan_mechanism_lane_preserves_order(task, losses):
    service = PMWService(task.dataset, rng=4)
    sid = service.open_session("pmw-convex", **PARAMS)
    session = service.session(sid)
    stream = [losses[0], losses[1], losses[0], losses[2]]
    plan = plan_batch(session, stream)
    lane = plan.mechanism_lane(stream)
    assert lane == [losses[0], losses[1], losses[2]]


def test_session_prewarm_linear_counts_distinct(task):
    """PMW-linear has no prewarm hook (its scalar round is two dots), so a
    session prewarm prepares nothing and the lane still serves."""
    from repro.losses.families import random_linear_queries

    service = PMWService(task.dataset, rng=5)
    sid = service.open_session("pmw-linear", alpha=0.2, epsilon=2.0,
                               max_updates=10)
    queries = random_linear_queries(task.universe, 4, rng=6)
    assert service.session(sid).prewarm(queries) == 0
    results = service.answer_batch((sid, queries))
    assert len(results) == 4


def test_session_prewarm_noop_without_hook(task):
    """Mechanisms without a prewarm hook stay a no-op (plug-in path)."""
    from repro.serve.session import Session

    class Hookless:
        halted = False

    session = Session("bare", Hookless())
    assert session.prewarm(["anything"]) == 0
