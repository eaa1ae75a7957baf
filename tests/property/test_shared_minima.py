"""Sessions over one dataset share inner-solve minima, and nothing else.

:mod:`repro.engine.memo` gives every :class:`~repro.data.dataset.Dataset`
object one memo of data-side minima and of cold solves on the uniform
prior. Sharing must be invisible in every release: sessions over one
``Dataset`` answer bitwise as sessions each given an equal-content copy
(:meth:`Dataset.copy`, which shares nothing), with the same ``history``,
the same privacy totals and the same snapshots. This suite checks that,
plus key separation (solver steps, backends, datasets), the LRU bound,
thread safety and read-only entries. The CI backend job runs it on every
registered backend.
"""

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.backend import available_backends
from repro.core.pmw_cm import PrivateMWConvex
from repro.data import make_classification_dataset
from repro.engine.memo import MinimaMemo, shared_minima
from repro.exceptions import MechanismHalted
from repro.losses.families import (
    random_hinge_family,
    random_logistic_family,
    random_squared_family,
)
from repro.obs import MetricsRegistry, trace
from repro.optimize.minimize import MinimizeResult
from repro.serve.registry import build_oracle
from repro.serve.service import PMWService

SESSIONS = 4


@pytest.fixture(scope="module")
def task():
    return make_classification_dataset(n=2_000, d=3, universe_size=64,
                                       rng=0)


@pytest.fixture(scope="module")
def pool(task):
    return (random_logistic_family(task.universe, 4, rng=1)
            + random_hinge_family(task.universe, 4, rng=2)
            + random_squared_family(task.universe, 4, rng=3))


@pytest.fixture(scope="module")
def params(pool):
    return dict(scale=max(loss.scale_bound() for loss in pool), alpha=0.05,
                beta=0.1, epsilon=1.0, delta=1e-6, max_updates=3,
                solver_steps=40)


def _memo(dataset):
    return shared_minima(dataset, limit=PrivateMWConvex.DATA_MINIMA_LIMIT)


def _mechanism(dataset, params, seed, **overrides):
    merged = {**params, **overrides}
    oracle = build_oracle("noisy-sgd", merged["epsilon"], merged["delta"])
    return PrivateMWConvex(dataset, oracle, rng=seed, **merged)


def _streams(pool, count=SESSIONS):
    """Overlapping per-session streams drawn from one pool."""
    rng = np.random.default_rng(7)
    streams = []
    for _ in range(count):
        order = rng.permutation(len(pool))[:8]
        stream = [pool[int(j)] for j in order]
        streams.append(stream + stream[:1])
    return streams


def _serve(mechanism, stream):
    """A prewarmed batch, then lazy rounds, then hypothesis answers."""
    answers = mechanism.answer_all(stream[:5], on_halt="hypothesis")
    for loss in stream[5:]:
        try:
            answers.append(mechanism.answer(loss))
        except MechanismHalted:
            answers.append(mechanism.answer_from_hypothesis(loss))
    answers.extend(mechanism.answer_from_hypothesis(loss)
                   for loss in stream[:2])
    return answers


def _digest(mechanism, answers):
    total = mechanism.accountant.total_basic()
    return ([(a.theta.tobytes(), a.from_update, a.query_index,
              a.update_index) for a in answers],
            json.dumps(mechanism.history),
            (total.epsilon.hex(), total.delta.hex()))


def _run_sessions(datasets, streams, params, **overrides):
    digests, mechanisms = [], []
    for seed, (dataset, stream) in enumerate(zip(datasets, streams)):
        mechanism = _mechanism(dataset, params, seed, **overrides)
        digests.append(_digest(mechanism, _serve(mechanism, stream)))
        mechanisms.append(mechanism)
    return digests, mechanisms


def _counters(registry):
    return {(entry["name"], entry["labels"].get("side")): entry["value"]
            for entry in registry.snapshot()["counters"]
            if entry["name"].startswith("solver.memo")}


@pytest.mark.parametrize("backend", available_backends())
def test_serial_sessions_match_unshared_copies_bitwise(task, pool, params,
                                                        backend):
    dataset = task.dataset.copy()
    streams = _streams(pool)
    registry = MetricsRegistry()
    trace.install(registry=registry)
    try:
        shared, _ = _run_sessions([dataset] * SESSIONS, streams, params,
                                  backend=backend)
    finally:
        trace.uninstall()
    alone, _ = _run_sessions([dataset.copy() for _ in range(SESSIONS)],
                             streams, params, backend=backend)
    assert shared == alone
    counters = _counters(registry)
    # Not vacuous: both sides of the memo served other sessions.
    assert counters[("solver.memo_hits", "data")] > 0
    assert counters[("solver.memo_hits", "prior")] > 0


def _gateway_values(service, sids, streams):
    with service.gateway(workers=2, max_queue_depth=512) as gateway:
        futures = [(sid, [gateway.submit_async(sid, loss)
                          for loss in stream])
                   for sid, stream in zip(sids, streams)]
        values = {sid: [np.asarray(f.result(timeout=120).value).tobytes()
                        for f in pending]
                  for sid, pending in futures}
    totals = {}
    for sid in sids:
        total = service.session(sid).accountant.total_basic()
        totals[sid] = (total.epsilon.hex(), total.delta.hex())
    return values, totals


def test_gateway_sessions_match_unshared_copies_bitwise(task, pool, params):
    # Lockstep GLMs only: their minima are bitwise the same at any batch
    # width, so the gateway's timing-dependent coalescing cannot show.
    glms = pool[:8]
    streams = _streams(glms)
    config = {**params, "oracle": "noisy-sgd"}
    dataset = task.dataset.copy()

    shared = PMWService({"data": dataset}, rng=5)
    shared_sids = [shared.open_session("pmw-convex", dataset="data",
                                       **config) for _ in streams]
    alone = PMWService({f"data-{i}": dataset.copy()
                        for i in range(len(streams))}, rng=5)
    alone_sids = [alone.open_session("pmw-convex", dataset=f"data-{i}",
                                     **config)
                  for i in range(len(streams))]

    shared_values, shared_totals = _gateway_values(shared, shared_sids,
                                                   streams)
    alone_values, alone_totals = _gateway_values(alone, alone_sids, streams)
    for left, right in zip(shared_sids, alone_sids):
        assert shared_values[left] == alone_values[right]
        assert shared_totals[left] == alone_totals[right]
    assert len(_memo(dataset)) > 0


def test_snapshot_round_trip_is_unchanged_by_sharing(task, pool, params):
    dataset = task.dataset.copy()
    # The first session fills the memo with every other pool entry, so
    # the second one's prewarmed lane interleaves hits and misses.
    _run_sessions([dataset], [pool[::2]], params)
    shared = _mechanism(dataset, params, 1)
    alone = _mechanism(dataset.copy(), params, 1)
    for mechanism in (shared, alone):
        mechanism.prewarm(pool[:6])
    # Taken between a lane's prewarm and its rounds, as a checkpoint may
    # be: the data-side entries sit in lane order either way.
    assert json.dumps(shared.snapshot()) == json.dumps(alone.snapshot())
    for mechanism in (shared, alone):
        _serve(mechanism, pool)
    snapshot = shared.snapshot()
    assert snapshot["format"] == "repro.pmw_cm/v3"
    assert json.dumps(snapshot) == json.dumps(alone.snapshot())

    oracle = build_oracle("noisy-sgd", params["epsilon"], params["delta"])
    restored = PrivateMWConvex.restore(json.loads(json.dumps(snapshot)),
                                       dataset, oracle, rng=9)
    assert json.dumps(restored.snapshot()) == json.dumps(snapshot)
    twin = PrivateMWConvex.restore(json.loads(json.dumps(snapshot)),
                                   dataset.copy(), oracle, rng=9)
    tail = pool[::-1]
    assert _digest(restored, [restored.answer_from_hypothesis(loss)
                              for loss in tail]) == \
        _digest(twin, [twin.answer_from_hypothesis(loss) for loss in tail])


def test_lazy_rounds_read_prewarmed_minima_bitwise(task, pool, params):
    """A data-side miss in answer() may be filled by another session's
    prewarmed batch; alone, the session solves it at width 1 through the
    same engine call, so the values agree bit for bit."""
    dataset = task.dataset.copy()
    _mechanism(dataset, params, 0).prewarm(pool)
    lazy = {**params, "max_updates": 50}
    shared = _mechanism(dataset, lazy, 1)
    alone = _mechanism(dataset.copy(), lazy, 1)
    for mechanism in (shared, alone):
        for loss in pool:
            mechanism.answer(loss)
    assert json.dumps(shared.snapshot()) == json.dumps(alone.snapshot())


def test_keys_separate_solver_steps(task, pool, params):
    dataset = task.dataset.copy()
    loss = pool[0]
    for steps in (40, 60):
        _mechanism(dataset, params, 0, solver_steps=steps).answer(loss)
    memo = _memo(dataset)
    fingerprint = loss.fingerprint()
    assert ("data", 40, fingerprint) in memo
    assert ("data", 60, fingerprint) in memo
    steps60 = _mechanism(dataset, params, 3, solver_steps=60)
    fresh60 = _mechanism(dataset.copy(), params, 3, solver_steps=60)
    assert _digest(steps60, [steps60.answer(loss)]) == \
        _digest(fresh60, [fresh60.answer(loss)])


def test_keys_separate_prior_backends(task, pool, params):
    dataset = task.dataset.copy()
    loss = pool[4]
    backends = available_backends()
    for backend in backends:
        _mechanism(dataset, params, 0, backend=backend).answer(loss)
    memo = _memo(dataset)
    for backend in backends:
        assert ("prior", backend, params["solver_steps"],
                loss.fingerprint()) in memo
        shared = _mechanism(dataset, params, 2, backend=backend)
        alone = _mechanism(dataset.copy(), params, 2, backend=backend)
        assert _digest(shared, [shared.answer_from_hypothesis(loss)]) == \
            _digest(alone, [alone.answer_from_hypothesis(loss)])


def test_keys_separate_datasets(task):
    dataset = task.dataset.copy()
    other = make_classification_dataset(n=2_000, d=3, universe_size=64,
                                        rng=1).dataset
    assert _memo(dataset) is _memo(dataset)
    assert _memo(dataset) is not _memo(dataset.copy())
    assert _memo(dataset) is not _memo(other)


def _result(value):
    return MinimizeResult(np.array([value, -value]), float(value), False)


def test_lru_bound_holds():
    memo = MinimaMemo(limit=3)
    for index in range(3):
        memo.put(("data", 1, str(index)), _result(index))
    assert memo.get(("data", 1, "0")) is not None  # now most recent
    memo.put(("data", 1, "3"), _result(3))
    assert len(memo) == 3
    assert ("data", 1, "1") not in memo
    assert ("data", 1, "0") in memo and ("data", 1, "3") in memo


def test_lru_bound_holds_through_the_mechanism(task, pool, params,
                                               monkeypatch):
    monkeypatch.setattr(PrivateMWConvex, "DATA_MINIMA_LIMIT", 5)
    dataset = task.dataset.copy()
    mechanism = _mechanism(dataset, params, 0)
    mechanism.answer_all(pool, on_halt="hypothesis")
    assert len(_memo(dataset)) == 5


def test_threads_hammering_one_memo_lose_nothing():
    memo = MinimaMemo(limit=10_000)
    workers = (os.cpu_count() or 1) + 2
    errors = []

    def hammer(worker):
        try:
            for index in range(300):
                key = ("data", worker, str(index))
                memo.put(key, _result(index))
                shared = ("prior", "numpy", 1, str(index % 7))
                if memo.get(shared) is None:
                    memo.put(shared, _result(index % 7))
                assert memo.get(key).value == float(index)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(worker,))
                   for worker in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(memo) == workers * 300 + 7
    for worker in range(workers):
        for index in range(300):
            assert memo.get(("data", worker, str(index))).value == index


def test_shared_entries_are_read_only(task, pool, params):
    dataset = task.dataset.copy()
    loss = pool[0]
    first = _mechanism(dataset, params, 0)
    second = _mechanism(dataset, params, 1)
    kept = first.answer_from_hypothesis(loss).theta
    expected = kept.copy()
    served = second.answer_from_hypothesis(loss).theta
    with pytest.raises(ValueError):
        served[0] = 123.0
    with pytest.raises(ValueError):
        kept += 1.0
    np.testing.assert_array_equal(kept, expected)
    third = _mechanism(dataset, params, 2)
    assert third.answer_from_hypothesis(loss).theta.tobytes() == \
        expected.tobytes()
    first.answer(loss)
    data_key = ("data", params["solver_steps"], loss.fingerprint())
    assert not _memo(dataset).get(data_key) \
        .theta.flags.writeable
