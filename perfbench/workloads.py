"""The benchmark's three workloads.

Each workload makes its inputs from a seed (outside any timing), deploys
the serving stack through the public API (the timed set-up), drives load
through a ``ServiceGateway`` with 2 workers from one generator thread,
and tears the stack down. Every run keeps one :class:`Request` per
attempted request, which the checks and the error measurement read after
the timed window.

- ``glm_backlog``: a handful of pmw-convex sessions mixing logistic,
  hinge and squared GLMs; each analyst queues its whole stream at once.
- ``linear_repeat``: many pmw-linear sessions asking interval queries,
  mostly repeats, sent open loop at a fixed rate.
- ``sharded_adaptive``: squared-GLM pmw-convex and pmw-linear sessions
  on a 2-shard ``ShardedService``, closed loop, one query in flight per
  analyst, a fixed number of requests per analyst.
"""

from __future__ import annotations

import contextlib
import copy
import os
import queue
import shutil
import threading
import time

import numpy as np

from repro.data.builders import interval_grid
from repro.data.dataset import Dataset
from repro.data.synthetic import make_classification_dataset
from repro.dp.accountant import PrivacyAccountant
from repro.exceptions import Shed
from repro.losses.families import (
    random_hinge_family,
    random_logistic_family,
    random_squared_family,
)
from repro.losses.linear import LinearQuery
from repro.optimize.minimize import minimize_loss
from repro.serve.gateway import ServiceGateway
from repro.serve.ledger import replay_ledger
from repro.serve.service import PMWService
from repro.serve.shard import ShardedService
from repro.serve.shard.worker import LEDGER_NAME

GATEWAY_WORKERS = 2
clock = time.perf_counter


def _worker_cpu_s(pids) -> float:
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def cpu_s(deployment) -> float:
    """CPU seconds used so far by this process and the shard workers."""
    return time.process_time() + _worker_cpu_s(deployment.worker_pids)


class Request:
    """One attempted request and what became of it.

    Only the answer's value and source are kept, and the query object is
    dropped once answered, so the benchmark's own bookkeeping adds little
    to the heap the program's garbage collector walks.
    """

    __slots__ = ("session", "sid", "key", "query", "due", "sent", "done",
                 "value", "source", "error")

    def __init__(self, session: int, key, query) -> None:
        self.session = session  # the analyst's index (in its epoch)
        self.sid: str | None = None  # the service's session id, once sent
        self.key = key          # identifies the distinct query asked
        self.query = query      # a fresh object, never fingerprinted yet
        self.due = 0.0          # open loop: the scheduled send time
        self.sent = 0.0
        self.done = 0.0
        self.value = None
        self.source: str | None = None
        self.error: BaseException | None = None

    @property
    def answered(self) -> bool:
        return self.source is not None


def _fresh(loss):
    """A new object for the same query: its fingerprint is paid again, as
    it would be for a request deserialized off the wire."""
    clone = copy.copy(loss)
    vars(clone).pop("_fingerprint_digest", None)
    return clone


class Outstanding:
    """Counts requests in flight; ``settled`` receives each finished
    request (the closed loop reads it to send the analyst's next one)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0
        self._idle = threading.Event()
        self._idle.set()
        self.settled: queue.SimpleQueue = queue.SimpleQueue()

    def add(self) -> None:
        with self._lock:
            self._count += 1
            self._idle.clear()

    def finish(self, request: Request) -> None:
        self.settled.put(request)
        with self._lock:
            self._count -= 1
            if not self._count:
                self._idle.set()

    def wait(self) -> None:
        self._idle.wait()


def _submit(gateway, sid: str, request: Request, outstanding: Outstanding,
            tracer) -> None:
    """Send one request; its outcome lands on the request itself."""
    outstanding.add()
    request.sid = sid
    request.sent = clock()
    if tracer is not None:
        tracer.note_submit(request.query, id(request), request.sent)
    try:
        future = gateway.submit_async(sid, request.query)
    except Shed as error:
        request.done, request.error = clock(), error
        outstanding.finish(request)
        return

    def settle(done_future, request=request):
        request.done = clock()
        error = done_future.exception()
        if error is None:
            result = done_future.result()
            request.value, request.source = result.value, result.source
            request.query = None
        else:
            request.error = error
        outstanding.finish(request)

    future.add_done_callback(settle)


class Deployment:
    """A running stack: service, gateway, sessions, and where it keeps
    its files."""

    def __init__(self, service, gateway, sids, workdir, ledger_paths,
                 worker_pids=(), spawn_s: float = 0.0) -> None:
        self.service = service
        self.gateway = gateway
        self.sids = sids
        self.workdir = workdir
        self.ledger_paths = ledger_paths
        self.worker_pids = list(worker_pids)
        self.spawn_s = spawn_s


class Drive:
    """What one timed window produced: the requests, the window's wall
    and CPU seconds, and (open loop) how late each send went out."""

    def __init__(self, requests, window_s: float, cpu_s: float,
                 lags=(), queries=None) -> None:
        self.requests = requests
        self.window_s = window_s
        self.cpu_s = cpu_s
        self.lags = list(lags)
        self.queries = queries or {}   # key -> query, where errors need it


# -- shared helpers -----------------------------------------------------------


def _interval_bases(size: int, widths) -> dict[int, np.ndarray]:
    """One read-only array per width, so an interval table is a view:
    ``base[size - start: 2 * size - start]`` is 1 on [start, start+width)."""
    bases = {}
    for width in widths:
        base = np.zeros(2 * size)
        base[size:size + width] = 1.0
        base.setflags(write=False)
        bases[width] = base
    return bases


def _interval_query(bases, size: int, start: int, width: int) -> LinearQuery:
    table = bases[width][size - start:2 * size - start]
    return LinearQuery(table, name=f"interval-{start}-{width}")


def _interval_truth(dataset: Dataset):
    cumulative = np.concatenate(
        [[0.0], np.cumsum(dataset.histogram().weights)])
    return lambda start, width: float(cumulative[start + width]
                                      - cumulative[start])


def _cm_excess(dataset: Dataset):
    """Excess empirical risk of a CM answer, against the data optimum
    (solved once per distinct query)."""
    histogram = dataset.histogram()
    optima: dict = {}

    def excess(key, loss, theta) -> float:
        if key not in optima:
            optima[key] = minimize_loss(loss, histogram).value
        return max(0.0, float(loss.loss_on(np.asarray(theta), histogram))
                   - optima[key])

    return excess


def in_process_stack(dataset, workdir, session_specs, seed):
    """PMWService with a durable ledger behind a 2-worker gateway."""
    os.makedirs(workdir, exist_ok=True)
    ledger = os.path.join(workdir, "budget.jsonl")
    service = PMWService(dataset, ledger_path=ledger, rng=seed)
    sids = [service.open_session(mechanism, analyst=f"analyst-{index}",
                                 **params)
            for index, (mechanism, params) in enumerate(session_specs)]
    gateway = ServiceGateway(service, workers=GATEWAY_WORKERS,
                             max_queue_depth=256)
    return Deployment(service, gateway, sids, workdir, [ledger])


def _totals(accountant) -> tuple[float, float]:
    total = accountant.total_basic()
    return float(total.epsilon), float(total.delta)


def in_process_budgets(deployment) -> dict[str, tuple[float, float]]:
    service = deployment.service
    return {sid: _totals(service.session(sid).accountant)
            for sid in service.session_ids}


# -- glm_backlog ----------------------------------------------------------------


class GlmBacklog:
    """Dashboard refreshes against GLM convex-minimization sessions.

    Each epoch opens fresh analyst sessions; every analyst queues its
    whole stream at t=0 (9 distinct queries and one repeat), so the
    gateway coalesces each session's backlog into one batch and the
    mechanism prewarms data- and hypothesis-side minima through the
    engine. Queries are drawn from a pool of GLMs shared across epochs.
    """

    name = "glm_backlog"
    open_loop = False

    def __init__(self, smoke: bool = False) -> None:
        self.per_family = 2 if smoke else 16
        self.analysts = 2 if smoke else 4
        self.distinct = 3 if smoke else 9   # a multiple of the 3 families
        self.universe_size = 64 if smoke else 512

    @staticmethod
    def is_cm(request) -> bool:
        """Every request is a CM query."""
        return True

    def make_inputs(self, seed: int) -> dict:
        task = make_classification_dataset(
            n=20_000, d=5, universe_size=self.universe_size, rng=seed)
        universe = task.universe
        pool = (random_logistic_family(universe, self.per_family,
                                       rng=seed + 1)
                + random_hinge_family(universe, self.per_family,
                                      rng=seed + 2)
                + random_squared_family(universe, self.per_family,
                                        rng=seed + 3))
        scale = max(loss.scale_bound() for loss in pool)
        # A low alpha makes nearly every round before the update budget
        # runs out an MW update, so each session does the same amount of
        # update work (3 updates, then answers from its hypothesis).
        params = dict(oracle="noisy-sgd", scale=scale, alpha=0.02,
                      epsilon=1.0, delta=1e-6, max_updates=3)
        return {"seed": seed, "dataset": task.dataset, "pool": pool,
                "params": params}

    def _specs(self, inputs):
        return [("pmw-convex", inputs["params"])] * self.analysts

    def deploy(self, inputs, workdir) -> Deployment:
        return in_process_stack(inputs["dataset"], workdir,
                                self._specs(inputs), inputs["seed"])

    def _epoch_streams(self, rng):
        """Per analyst: the same number of queries from each family (so
        every stream costs about the same), shuffled, plus one repeat of
        an earlier query."""
        per_family = self.distinct // 3
        streams = []
        for _ in range(self.analysts):
            picks = [family * self.per_family + int(index)
                     for family in range(3)
                     for index in rng.choice(self.per_family, per_family,
                                             replace=False)]
            rng.shuffle(picks)
            first = int(rng.integers(0, len(picks) - 1))
            picks.insert(int(rng.integers(first + 1, len(picks) + 1)),
                         picks[first])
            streams.append(picks)
        return streams

    def drive(self, deployment, inputs, seconds: float, tracer=None) -> Drive:
        pool = inputs["pool"]
        rng = np.random.default_rng(inputs["seed"] + 7)
        service, gateway = deployment.service, deployment.gateway
        requests: list[Request] = []
        window = cpu = 0.0
        epoch = 0
        while window < seconds:
            if epoch:
                deployment.sids = [
                    service.open_session(mechanism, analyst=f"e{epoch}-{i}",
                                         **params)
                    for i, (mechanism, params)
                    in enumerate(self._specs(inputs))]
            batch = [Request(session, index, _fresh(pool[index]))
                     for session, stream in enumerate(
                         self._epoch_streams(rng))
                     for index in stream]
            outstanding = Outstanding()
            cpu_start, started = cpu_s(deployment), clock()
            for request in batch:
                _submit(gateway, deployment.sids[request.session], request,
                        outstanding, tracer)
            outstanding.wait()
            window += max(r.done for r in batch) - started
            cpu += cpu_s(deployment) - cpu_start
            requests.extend(batch)
            epoch += 1
        return Drive(requests, window, cpu)

    budgets = staticmethod(in_process_budgets)

    def answer_errors(self, inputs, drive) -> list[float]:
        excess = _cm_excess(inputs["dataset"])
        return [excess(r.key, inputs["pool"][r.key], r.value)
                for r in drive.requests if r.answered]


# -- linear_repeat ----------------------------------------------------------------


class LinearRepeat:
    """Open-loop interval queries against many pmw-linear sessions.

    About 70% of requests repeat an earlier query of the same session,
    sent as a fresh object so the fingerprint is paid again. The solver
    does no work: time goes to hashing, cache, planner, lanes and queues.
    """

    name = "linear_repeat"
    open_loop = True
    #: Offered load: about half of what one sending thread could push
    #: through the stack on a 2-vCPU host (the gateway fingerprints each
    #: request on the sender's thread).
    RATE = 300.0
    REPEAT_SHARE = 0.7

    def __init__(self, smoke: bool = False) -> None:
        self.universe_size = 2_000 if smoke else 100_000
        self.analysts = 4 if smoke else 32
        self.rate = 200.0 if smoke else self.RATE

    @staticmethod
    def is_cm(request) -> bool:
        """No request is a CM query."""
        return False

    def make_inputs(self, seed: int) -> dict:
        size = self.universe_size
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0.1, 0.9, size=4) * size
        spread = size / 20.0
        rows = np.clip(rng.normal(rng.choice(centers, size=30_000), spread),
                       0, size - 1).astype(np.int64)
        dataset = Dataset(interval_grid(size), rows)
        widths = sorted({max(1, size // divisor)
                         for divisor in (64, 32, 16, 10, 8, 6, 4, 3)})
        params = dict(alpha=0.05, epsilon=1.0, delta=1e-6, max_updates=16)
        return {"seed": seed, "dataset": dataset, "widths": widths,
                "bases": _interval_bases(size, widths), "params": params}

    def deploy(self, inputs, workdir) -> Deployment:
        specs = [("pmw-linear", inputs["params"])] * self.analysts
        return in_process_stack(inputs["dataset"], workdir, specs,
                                inputs["seed"])

    def schedule(self, inputs, count: int) -> list[Request]:
        """``count`` requests in send order; the generator builds each
        query object just before sending it."""
        rng = np.random.default_rng(inputs["seed"] + 11)
        size, widths = self.universe_size, inputs["widths"]
        history: list[list[tuple[int, int]]] = [[] for _ in
                                                range(self.analysts)]
        requests = []
        for _ in range(count):
            session = int(rng.integers(self.analysts))
            asked = history[session]
            if asked and rng.random() < self.REPEAT_SHARE:
                key = asked[int(rng.integers(len(asked)))]
            else:
                width = widths[int(rng.integers(len(widths)))]
                key = (int(rng.integers(0, size - width + 1)), width)
                asked.append(key)
            requests.append(Request(session, key, None))
        return requests

    def drive(self, deployment, inputs, seconds: float, tracer=None) -> Drive:
        requests = self.schedule(inputs, max(1, int(self.rate * seconds)))
        gateway, sids = deployment.gateway, deployment.sids
        bases, size = inputs["bases"], self.universe_size
        interval = 1.0 / self.rate
        outstanding, lags = Outstanding(), []
        cpu_start = cpu_s(deployment)
        origin = clock() + 0.01
        for position, request in enumerate(requests):
            request.due = origin + position * interval
            pause = request.due - clock()
            if pause > 0:
                time.sleep(pause)
            request.query = _interval_query(bases, size, *request.key)
            _submit(gateway, sids[request.session], request, outstanding,
                    tracer)
            lags.append(request.sent - request.due)
        outstanding.wait()
        window = max(r.done for r in requests) - origin
        return Drive(requests, window, cpu_s(deployment) - cpu_start, lags)

    budgets = staticmethod(in_process_budgets)

    def answer_errors(self, inputs, drive) -> list[float]:
        truth = _interval_truth(inputs["dataset"])
        return [abs(float(r.value) - truth(*r.key))
                for r in drive.requests if r.answered]


# -- sharded_adaptive ---------------------------------------------------------------


class ShardedAdaptive:
    """Adaptive analysts on a 2-shard ``ShardedService``, closed loop.

    Even sessions ask squared-GLM CM queries (closed-form solves), odd
    ones interval linear queries; half the requests are fresh queries.
    A low alpha and a high update budget make many rounds MW updates,
    oracle calls and ledger appends, and every request crosses the frame
    protocol, the pipe and query interning.

    The window is a fixed amount of work: every analyst sends the same
    number of requests, from a stream made from the seed alone, and the
    window ends when the last one settles. So the requests, the answer
    mix and the privacy spent do not change with the speed of the host
    or of the program; only the time the work takes does.
    """

    name = "sharded_adaptive"
    open_loop = False
    REPEAT_SHARE = 0.5
    CHECKPOINT_EVERY = 64
    #: Requests per analyst per second of ``--seconds``. On a 2-vCPU host
    #: whose speed drifts by up to 3x over hours, all 16 analysts were
    #: answered at 230-630 queries/s, so a run's window lasts between
    #: about 0.4 and 1.05 times ``--seconds``.
    REQUESTS_PER_ANALYST_SECOND = 15
    #: Far above the updates a session makes in a run (about 120
    #: on average at 675 requests), so no session halts.
    MAX_UPDATES = 1000

    def __init__(self, smoke: bool = False) -> None:
        self.analysts = 4 if smoke else 16
        self.feature_size = 64 if smoke else 2048
        self.shards = 2

    def requests_per_analyst(self, seconds: float) -> int:
        return max(4, round(seconds * self.REQUESTS_PER_ANALYST_SECOND))

    @staticmethod
    def is_cm(request) -> bool:
        """Even analysts ask CM queries."""
        return request.session % 2 == 0

    def make_inputs(self, seed: int) -> dict:
        task = make_classification_dataset(
            n=20_000, d=5, universe_size=self.feature_size, rng=seed)
        universe = task.universe
        probe = random_squared_family(universe, 1, rng=seed)[0]
        size = universe.size
        widths = sorted({max(1, size // divisor)
                         for divisor in (32, 16, 8, 4, 3)})
        return {
            "seed": seed, "dataset": task.dataset,
            "widths": widths, "bases": _interval_bases(size, widths),
            "convex": dict(oracle="noisy-sgd", scale=probe.scale_bound(),
                           alpha=0.05, epsilon=1.0, delta=1e-6,
                           max_updates=self.MAX_UPDATES),
            "linear": dict(alpha=0.05, epsilon=1.0, delta=1e-6,
                           max_updates=self.MAX_UPDATES),
        }

    def deploy(self, inputs, workdir) -> Deployment:
        started = clock()
        service = ShardedService(inputs["dataset"], workdir,
                                 shards=self.shards,
                                 checkpoint_every=self.CHECKPOINT_EVERY,
                                 rng=inputs["seed"])
        STARTED_SERVICES.append(service)
        pids = [service.ping(shard)["pid"] for shard in service.shard_ids]
        spawn_s = clock() - started
        sids = [service.open_session(
                    "pmw-convex" if index % 2 == 0 else "pmw-linear",
                    analyst=f"analyst-{index}",
                    **(inputs["convex"] if index % 2 == 0
                       else inputs["linear"]))
                for index in range(self.analysts)]
        gateway = ServiceGateway(service, workers=GATEWAY_WORKERS,
                                 max_queue_depth=256)
        ledgers = [os.path.join(service.shard_dir(shard), LEDGER_NAME)
                   for shard in service.shard_ids]
        return Deployment(service, gateway, sids, workdir, ledgers,
                          worker_pids=pids, spawn_s=spawn_s)

    def _stream(self, inputs, index: int, count: int, originals: dict):
        """Analyst ``index``'s ``count`` queries, from the seed alone;
        every distinct query is also kept in ``originals`` by key."""
        universe = inputs["dataset"].universe
        size = universe.size
        widths = inputs["widths"]
        rng = np.random.default_rng([inputs["seed"], index])
        asked: list = []
        for _ in range(count):
            if asked and rng.random() < self.REPEAT_SHARE:
                key, query = asked[int(rng.integers(len(asked)))]
                yield key, _fresh(query)
                continue
            if index % 2 == 0:
                key = ("squared", index, len(asked))
                query = random_squared_family(universe, 1, rng=rng)[0]
            else:
                width = widths[int(rng.integers(len(widths)))]
                key = (int(rng.integers(0, size - width + 1)), width)
                query = _interval_query(inputs["bases"], size, *key)
            asked.append((key, query))
            originals[key] = query
            yield key, _fresh(query)

    def drive(self, deployment, inputs, seconds: float, tracer=None) -> Drive:
        count = self.requests_per_analyst(seconds)
        originals: dict = {}
        streams = [self._stream(inputs, index, count, originals)
                   for index in range(self.analysts)]
        gateway, sids = deployment.gateway, deployment.sids
        requests: list[Request] = []
        outstanding = Outstanding()

        def send(session: int) -> None:
            request = Request(session, *next(streams[session]))
            requests.append(request)
            _submit(gateway, sids[session], request, outstanding, tracer)

        cpu_start, origin = cpu_s(deployment), clock()
        for session in range(self.analysts):
            send(session)
        unsent = [count - 1] * self.analysts
        while any(unsent):
            session = outstanding.settled.get().session
            if unsent[session]:
                unsent[session] -= 1
                send(session)
        outstanding.wait()
        window = max(r.done for r in requests) - origin
        return Drive(requests, window, cpu_s(deployment) - cpu_start,
                     queries=originals)

    @staticmethod
    def budgets(deployment) -> dict[str, tuple[float, float]]:
        return {sid: _totals(PrivacyAccountant.from_records(records))
                for sid, records
                in deployment.service.budget_records().items()}

    def answer_errors(self, inputs, drive) -> list[float]:
        truth = _interval_truth(inputs["dataset"])
        excess = _cm_excess(inputs["dataset"])
        errors = []
        for r in drive.requests:
            if not r.answered:
                continue
            if r.session % 2 == 0:
                errors.append(excess(r.key, drive.queries[r.key], r.value))
            else:
                errors.append(abs(float(r.value) - truth(*r.key)))
        return errors


WORKLOADS = {cls.name: cls for cls in (GlmBacklog, LinearRepeat,
                                        ShardedAdaptive)}


# -- teardown and checks --------------------------------------------------------------

#: Every ShardedService started, so that :func:`close_started` can stop the
#: shard workers of a run that failed before it closed its deployment.
STARTED_SERVICES: list = []


def close(deployment) -> None:
    deployment.gateway.close()
    deployment.service.close()


def close_started() -> None:
    """Close every ShardedService still open (closing is idempotent): its
    monitor stops restoring shards, and its workers exit."""
    while STARTED_SERVICES:
        service = STARTED_SERVICES.pop()
        with contextlib.suppress(Exception):
            service.close()


def remove(deployment) -> None:
    shutil.rmtree(deployment.workdir, ignore_errors=True)


def replayed_budgets(ledger_paths) -> dict[str, tuple[float, float]]:
    """Per-session (epsilon, delta) totals rebuilt from the journals."""
    totals = {}
    for path in ledger_paths:
        state = replay_ledger(path)
        for sid in state.session_ids:
            totals[sid] = _totals(state.accountant_for(sid))
    return totals


def check(requests, live_budgets, replayed) -> list[str]:
    """The run's correctness checks; returns the failures found."""
    problems = []
    for request in requests:
        if request.answered:
            if not np.all(np.isfinite(np.asarray(request.value,
                                                 dtype=float))):
                problems.append(f"non-finite answer: {request.value!r}")
        elif request.error is None:
            problems.append("a request never settled")
        elif not isinstance(request.error, Shed):
            problems.append(f"untyped failure: {request.error!r}")
    for sid, live in live_budgets.items():
        journaled = replayed.get(sid)
        if journaled is None:
            problems.append(f"{sid}: no ledger record")
        elif [value.hex() for value in journaled] != \
                [value.hex() for value in live]:
            problems.append(f"{sid}: ledger replay {journaled} != "
                            f"accountant {live}")
    return problems[:20]
