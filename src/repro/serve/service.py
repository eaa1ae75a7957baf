"""`PMWService` — the multi-tenant query-serving front door.

One service owns a set of named private datasets and serves adaptively
chosen query streams from many analysts against them:

    service = PMWService(task.dataset, ledger_path="budget.jsonl")
    sid = service.open_session(
        "pmw-convex", analyst="alice", oracle="noisy-sgd",
        scale=2.0, alpha=0.2, epsilon=1.0, delta=1e-6,
    )
    result = service.submit(sid, loss)        # one query
    results = service.answer_batch({sid: losses})   # planned batch

Division of labor:

- each :class:`~repro.serve.session.Session` wraps one mechanism with a
  lock and lifecycle;
- the :class:`~repro.serve.registry.MechanismRegistry` builds mechanisms
  from JSON-documentable configuration;
- the :class:`~repro.serve.cache.AnswerCache` replays already-released
  answers (post-processing, zero privacy cost);
- the :class:`~repro.serve.ledger.BudgetLedger` journals every accountant
  spend durably *before* the answer is released, so a killed-and-restarted
  service resumes with the exact pre-crash budget totals
  (:meth:`PMWService.restore`);
- the :mod:`~repro.serve.planner` partitions batches into free/paid lanes
  and fans independent sessions out over a thread pool.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading

import numpy as np

from repro.backend import ArrayBackend, resolve_backend
from repro.data.dataset import Dataset
from repro.dp.accountant import PrivacySpend
from repro.exceptions import (
    MechanismHalted,
    PrivacyBudgetExhausted,
    ValidationError,
)
from repro.obs import trace
from repro.serve.cache import AnswerCache, CachedAnswer
from repro.serve.ledger import (
    BudgetLedger,
    decode_answer_value,
    encode_answer_value,
    fsync_dir,
    replay_ledger,
)
from repro.serve.planner import concurrent_map, plan_batch
from repro.serve.registry import MechanismRegistry, default_registry
from repro.serve.session import ServeResult, Session, try_fingerprint
from repro.utils.rng import as_generator, spawn_generators

SNAPSHOT_FORMAT = "repro.serve/v1"


class PMWService:
    """Serve CM and linear queries from sessions over private datasets.

    Parameters
    ----------
    datasets:
        One :class:`Dataset` (registered as ``"default"``) or a mapping
        ``name -> Dataset``. Datasets are the private state; they are never
        serialized by snapshots or the ledger.
    registry:
        Mechanism registry; defaults to the built-ins
        (``pmw-convex``, ``pmw-linear``).
    ledger_path:
        Optional path to the budget journal. When set, every accountant
        spend is durably journaled before its answer is released.
    ledger_fsync:
        Force each journal record to stable storage before its answer is
        released (default). Turning it off trades crash-safety for
        latency — appropriate for tests and benchmarks, not production.
    ledger_validate:
        Verify the existing journal's integrity (seq contiguity) when
        opening it (default). :meth:`restore` turns it off because its
        own replay has just validated the range it trusts.
    cache:
        Optional pre-built :class:`AnswerCache` (e.g. restored from a
        snapshot); by default a fresh unbounded cache.
    cache_entries:
        Capacity bound for the default cache.
    cache_policy:
        ``"replay"`` (default): any released answer is replayed forever —
        the privacy-optimal policy, since replays are free post-processing.
        ``"track-hypothesis"``: hypothesis-derived answers (sources
        ``"hypothesis"`` and ``"no-update"``) are stamped with the
        session's hypothesis version and invalidated once the hypothesis
        moves, so repeat queries after an MW update get a fresh (more
        accurate) round; same-version repeats and oracle releases
        (``"update"``) still replay at zero cost.
    backend:
        Service-level default numeric backend (a registered name or an
        :class:`~repro.backend.base.ArrayBackend`, normalized to its
        name so session params stay journalable). Injected into every
        :meth:`open_session` that does not pass its own ``backend``
        param; ``None`` leaves resolution to the mechanism (which reads
        ``REPRO_BACKEND``, defaulting to NumPy).
    rng:
        Seed/generator from which per-session generators are spawned.
    """

    CACHE_POLICIES = ("replay", "track-hypothesis")

    def __init__(self, datasets, *, registry: MechanismRegistry | None = None,
                 ledger_path=None, ledger_fsync: bool = True,
                 ledger_validate: bool = True,
                 cache: AnswerCache | None = None,
                 cache_entries: int | None = None,
                 cache_policy: str = "replay",
                 backend: str | ArrayBackend | None = None,
                 rng=None) -> None:
        if isinstance(datasets, Dataset):
            datasets = {"default": datasets}
        if not datasets:
            raise ValidationError("PMWService needs at least one dataset")
        self.datasets: dict[str, Dataset] = dict(datasets)
        self.registry = registry or default_registry()
        self.ledger = (BudgetLedger(ledger_path, fsync=ledger_fsync,
                                    validate=ledger_validate)
                       if ledger_path is not None else None)
        self.cache = (cache if cache is not None
                      else AnswerCache(max_entries=cache_entries))
        if cache_policy not in self.CACHE_POLICIES:
            raise ValidationError(
                f"cache_policy must be one of {self.CACHE_POLICIES}, got "
                f"{cache_policy!r}"
            )
        self.cache_policy = cache_policy
        # Normalized to a registered *name* (and validated eagerly): the
        # name is what flows into session params, which the ledger
        # journals as JSON.
        self.backend = (None if backend is None
                        else resolve_backend(backend).name)
        self._rng = as_generator(rng)
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()
        self._session_counter = 0
        self._closed = False
        # Exactly-once retry support: idempotency key -> the full reply
        # already released under that key (journaled through the ledger
        # as an ``answer`` record before release, rebuilt on restore).
        self._answers: dict[str, dict] = {}

    # -- sessions ------------------------------------------------------------

    def open_session(self, mechanism: str = "pmw-convex", *,
                     dataset: str | None = None, analyst: str = "analyst",
                     session_id: str | None = None,
                     epsilon_budget: float | None = None,
                     delta_budget: float | None = None,
                     rng=None, **params) -> str:
        """Create a session and journal its configuration. Returns its id.

        ``params`` are forwarded to the registry factory (for
        ``pmw-convex``: ``scale``, ``alpha``, ``epsilon``, ``oracle``, ...).
        ``epsilon_budget``/``delta_budget`` arm the session's accountant as
        a hard odometer on top of the mechanism's own calibration.
        """
        self._check_service_open()
        dataset_name = self._resolve_dataset(dataset)
        data = self.datasets[dataset_name]
        if rng is None:
            rng = spawn_generators(self._rng, 1)[0]
        if self.backend is not None:
            # Injected into the params dict itself, so the journaled
            # session configuration (and any cold resume from it) carries
            # the backend the session actually ran on.
            params.setdefault("backend", self.backend)
        mech = self.registry.create(mechanism, data, rng=rng, **params)
        self._arm_budget(mech, epsilon_budget, delta_budget)
        with self._lock:
            # Re-checked under the lock: close() flips the flag under
            # the same lock, so a session is either registered before
            # close() reads the barrier list or refused here.
            self._check_service_open()
            sid = session_id or self._next_session_id(mechanism)
            if sid in self._sessions:
                raise ValidationError(f"session id {sid!r} already in use")
            session = Session(sid, mech, mechanism_name=mechanism,
                              params=params, analyst=analyst,
                              dataset=dataset_name)
            # Hold the session lock across registration AND journaling:
            # the moment the session enters _sessions it is visible to a
            # concurrent snapshot, which captures per session under this
            # lock — without it, a capture could see the construction
            # spends in the accountant but last_spend_seq still -1, and
            # a later suffix-replaying restore would apply those
            # journaled spends a second time.
            session.lock.acquire()
            self._sessions[sid] = session
        try:
            # Consume construction-time spends (the sparse vector's
            # lifetime budget) unconditionally, so per-query marginal
            # costs never include them — with a ledger they are
            # journaled here.
            construction_spends = session.consume_unjournaled()
            if self.ledger is not None:
                self.ledger.append_open(
                    sid, mechanism, params, analyst=analyst,
                    dataset=dataset_name,
                    universe_size=data.universe.size,
                    dataset_digest=dataset_digest(data),
                    epsilon_budget=epsilon_budget,
                    delta_budget=delta_budget,
                )
                seq = self.ledger.append_spends(sid, construction_spends)
                if seq >= 0:
                    session.last_spend_seq = seq
        finally:
            session.lock.release()
        return sid

    def session(self, session_id: str) -> Session:
        """Look up a live session."""
        with self._lock:
            if session_id not in self._sessions:
                raise ValidationError(f"unknown session {session_id!r}")
            return self._sessions[session_id]

    @property
    def session_ids(self) -> list[str]:
        """Ids of all live sessions, in creation order."""
        with self._lock:
            return list(self._sessions)

    def close_session(self, session_id: str, *,
                      drop_cache: bool = True) -> None:
        """Close a session: journal it and evict its cache entries.

        The :class:`Session` object itself stays registered (its accountant
        feeds :meth:`budget_report` and ledger reconciliation), but its
        cache entries are unreachable once closed — pass
        ``drop_cache=False`` only if a snapshot should still carry them.
        """
        session = self.session(session_id)
        session.close()
        if drop_cache:
            self.cache.drop_session(session_id)
        if self.ledger is not None:
            self.ledger.append_close(session_id)

    # -- serving ---------------------------------------------------------------

    def submit(self, session_id: str, query, *, use_cache: bool = True,
               on_halt: str = "raise", idempotency_key: str | None = None,
               deadline=None) -> ServeResult:
        """Serve one query: cache first, then a mechanism round.

        ``on_halt="hypothesis"`` downgrades a halted mechanism to the
        public-hypothesis path instead of raising
        :class:`MechanismHalted`.

        ``idempotency_key`` makes the request exactly-once under
        retries: the reply is journaled through the budget ledger under
        the key *before* release, and a later submit carrying the same
        key replays the recorded reply bitwise — zero additional budget
        spend — instead of re-running a mechanism round. Keys are
        client-minted (see
        :class:`~repro.serve.resilience.ResilientClient`).

        ``deadline`` (a :class:`~repro.serve.resilience.Deadline`) is
        accepted for call-signature uniformity across the serving stack;
        a request that has reached the mechanism is always served to
        completion (its spend is already committed), so it only
        influences optional work such as batch prewarming.
        """
        self._check_service_open()
        if idempotency_key is not None:
            recorded = self._recorded_answer(session_id, idempotency_key)
            if recorded is not None:
                return recorded
        session = self.session(session_id)
        self._check_session_open(session)
        fingerprint = try_fingerprint(query)
        if use_cache and fingerprint is not None:
            hit = self.cache.get(session_id, fingerprint,
                                 version=self._cache_version(session))
            if hit is not None:
                result = self._cache_result(session_id, fingerprint, hit)
                return self._journal_answer(idempotency_key, result)
        result = self._serve_uncached(session, query, fingerprint, on_halt,
                                      recheck_cache=use_cache)
        return self._journal_answer(idempotency_key, result)

    def _cache_version(self, session: Session) -> int | None:
        """The hypothesis version cache lookups key on, per policy.

        ``None`` under the ``"replay"`` policy (or for mechanisms without
        version tracking): any released answer hits regardless of
        hypothesis movement.
        """
        if self.cache_policy != "track-hypothesis":
            return None
        return session.hypothesis_version

    def answer_batch(self, batches, *, max_workers: int | None = None,
                     use_cache: bool = True,
                     on_halt: str = "hypothesis"):
        """Serve batches for one or many sessions, planned and concurrent.

        ``batches`` is either ``{session_id: [queries]}`` (returns
        ``{session_id: [ServeResult]}``) or a ``(session_id, [queries])``
        pair (returns ``[ServeResult]``). Sessions run in parallel on a
        thread pool; within a session the mechanism lane keeps stream
        order. The default ``on_halt="hypothesis"`` keeps batches total:
        a mid-batch halt downgrades the remainder to the free path.
        """
        single = None
        if isinstance(batches, tuple):
            single, queries = batches
            batches = {single: list(queries)}
        results = concurrent_map(
            lambda sid, queries: self.serve_session_batch(
                sid, queries, use_cache=use_cache, on_halt=on_halt),
            {sid: list(queries) for sid, queries in batches.items()},
            max_workers=max_workers,
        )
        return results[single] if single is not None else results

    def serve_session_batch(self, session_id: str, queries, *,
                            use_cache: bool = True,
                            on_halt: str = "hypothesis",
                            idempotency_keys=None,
                            deadline=None) -> list[ServeResult]:
        """Serve one session's batch: planned lanes, engine-prewarmed.

        The single-session execution path under :meth:`answer_batch`
        (which fans it out across sessions) and the unit the gateway's
        coalescer submits (:meth:`gateway`): the planner lanes the batch
        (cache / in-batch duplicates / hypothesis / mechanism), the
        session pre-warms the mechanism lane through the batched
        evaluation engine, and the lane streams in order under the
        session lock. Results align with ``queries``.

        ``idempotency_keys`` aligns with ``queries`` (``None`` entries
        allowed): a query whose key already has a journaled answer is
        replayed bitwise from the record without touching the mechanism;
        the rest are served normally and their replies journaled under
        their keys before the batch returns (see :meth:`submit`).
        ``deadline`` bounds optional work only — an expired deadline
        skips the engine prewarm, never an already-admitted query.
        """
        queries = list(queries)
        keys = (list(idempotency_keys) if idempotency_keys is not None
                else [None] * len(queries))
        if len(keys) != len(queries):
            raise ValidationError(
                f"idempotency_keys length {len(keys)} != "
                f"batch length {len(queries)}"
            )
        self._check_service_open()
        replayed: dict[int, ServeResult] = {}
        for index, key in enumerate(keys):
            if key is None:
                continue
            recorded = self._recorded_answer(session_id, key)
            if recorded is not None:
                replayed[index] = recorded
        if len(replayed) == len(queries):
            return [replayed[index] for index in range(len(queries))]
        fresh = [index for index in range(len(queries))
                 if index not in replayed]
        fresh_results = self._serve_batch_fresh(
            session_id, [queries[index] for index in fresh],
            use_cache=use_cache, on_halt=on_halt, deadline=deadline)
        out: list[ServeResult] = [None] * len(queries)  # type: ignore
        for position, index in enumerate(fresh):
            out[index] = self._journal_answer(keys[index],
                                              fresh_results[position])
        for index, result in replayed.items():
            out[index] = result
        return out

    def _serve_batch_fresh(self, session_id: str, queries, *,
                           use_cache: bool, on_halt: str,
                           deadline=None) -> list[ServeResult]:
        session = self.session(session_id)
        self._check_session_open(session)
        with trace.span("serve.plan", session=session_id,
                        queries=len(queries)):
            plan = plan_batch(session, queries,
                              cache=self.cache if use_cache else None,
                              version=self._cache_version(session))
        results: list[ServeResult | None] = [None] * plan.total
        # Hypothesis version each first-occurrence was served at, so the
        # duplicates lane can tell a merely-evicted entry (same version:
        # replay the in-memory origin for free) from a stale one (an
        # update landed since: re-serve).
        served_versions: dict[int, int | None] = {}
        with session.lock:  # one thread per session: keep stream order
            # Submit the mechanism lane as one batch: the engine
            # pre-computes its data-side minimizations in a single
            # vectorized pass before the lane streams through the
            # mechanism in order.
            # Prewarming is an optimization, not a correctness step: a
            # batch whose deadline has already passed skips it and
            # streams the lane directly (claimed work always completes —
            # the spends are committed — but there is no point paying
            # for a vectorized warm-up the waiter will never notice).
            lane = plan.mechanism_lane(queries)
            expired = (deadline is not None
                       and getattr(deadline, "expired", False))
            if len(lane) > 1 and not expired:
                with trace.span("serve.prewarm", session=session_id,
                                lane=len(lane)):
                    session.prewarm(lane)
            for index in sorted(plan.mechanism + plan.hypothesis):
                results[index] = self._serve_uncached(
                    session, queries[index], plan.fingerprints[index],
                    on_halt, recheck_cache=use_cache,
                )
                served_versions[index] = session.hypothesis_version
        for index in plan.cached:
            fingerprint = plan.fingerprints[index]
            hit = self.cache.get(session_id, fingerprint,
                                 version=self._cache_version(session))
            if hit is None:  # evicted (or gone stale) since planning
                results[index] = self._serve_uncached(
                    session, queries[index], fingerprint, on_halt,
                    recheck_cache=use_cache)
                continue
            results[index] = self._cache_result(session_id, fingerprint, hit)
        for index, first in plan.duplicates.items():
            # The first occurrence was cached the moment it was served, so
            # duplicates go through the cache (keeping hit stats honest),
            # with the in-memory result as fallback.
            fingerprint = plan.fingerprints[index]
            hit = self.cache.get(session_id, fingerprint,
                                 version=self._cache_version(session))
            if hit is None:
                origin = results[first]
                # The in-memory origin is a valid free replay unless the
                # policy tracks the hypothesis AND the origin is a
                # hypothesis-derived answer from a version that has since
                # moved (an MW update landed mid-batch). A merely-evicted
                # entry replays — re-running it would double-spend the
                # stream slot (and possibly oracle budget) for an answer
                # already in hand; oracle releases ("update") replay
                # across versions by the policy's own definition.
                replayable = (
                    self.cache_policy != "track-hypothesis"
                    or origin.source == "update"
                    or served_versions.get(first) == session.hypothesis_version
                )
                if not replayable:
                    results[index] = self._serve_uncached(
                        session, queries[index], fingerprint, on_halt,
                        recheck_cache=use_cache)
                    continue
                hit = CachedAnswer(value=origin.value, source="cache",
                                   query_index=origin.query_index)
            results[index] = self._cache_result(session_id, fingerprint, hit)
        return results

    def _serve_uncached(self, session: Session, query,
                        fingerprint: str | None, on_halt: str, *,
                        recheck_cache: bool = True) -> ServeResult:
        if on_halt not in ("raise", "hypothesis"):
            raise ValidationError(
                f"on_halt must be 'raise' or 'hypothesis', got {on_halt!r}"
            )
        with session.lock:
            # Re-checked under the session lock: close() barriers on
            # this lock after flipping the flag, so a round either
            # refuses here or completes its journaling before the
            # ledger handle is released.
            self._check_service_open()
            if recheck_cache and fingerprint is not None:
                # Double-checked under the session lock: a concurrent
                # duplicate submission may have released this answer while
                # we waited, and replaying it is free — re-running the
                # mechanism round would double-spend.
                hit = self.cache.get(session.session_id, fingerprint,
                                     version=self._cache_version(session))
                if hit is not None:
                    return self._cache_result(session.session_id,
                                              fingerprint, hit)
            try:
                # Deferred construction spends (cold resume) are recorded
                # now: this is the restarted interaction's first use, and
                # they reach the journal below, before the answer release.
                session.flush_pending_spends()
                value, source, query_index = session.answer(query)
            except (MechanismHalted, PrivacyBudgetExhausted):
                # Both exhaustions mean "no more paid rounds"; the free
                # hypothesis path stays available either way.
                if on_halt == "raise":
                    raise
                value = session.answer_from_hypothesis(query)
                source, query_index = "hypothesis", None
            records = session.consume_unjournaled()
            # Journal *before* releasing the answer: write-ahead budget
            # accounting is what makes restart totals exact.
            if self.ledger is not None:
                seq = self.ledger.append_spends(session.session_id, records)
                if seq >= 0:
                    session.last_spend_seq = seq
            # Cache inside the lock, so a waiting duplicate's recheck is
            # guaranteed to see this answer. Hypothesis-derived answers
            # are stamped with the hypothesis version they were computed
            # at (unchanged by bottom rounds), so update-aware lookups
            # can tell fresh from stale; oracle releases ("update") are
            # data-side answers and stay version-free (replay forever).
            if fingerprint is not None:
                stamped = (session.hypothesis_version
                           if source in ("hypothesis", "no-update")
                           else None)
                self.cache.put(session.session_id, fingerprint,
                               CachedAnswer(value=value, source=source,
                                            query_index=query_index,
                                            hypothesis_version=stamped))
        return ServeResult(
            session_id=session.session_id, fingerprint=fingerprint or "",
            value=value, source=source, query_index=query_index,
            epsilon_spent=float(sum(r["epsilon"] for r in records)),
            delta_spent=float(sum(r["delta"] for r in records)),
        )

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Close the service, releasing the budget ledger's file handle.

        Idempotent, and safe against in-flight serving: after new
        admissions are stopped, the close barriers on every session's
        lock, so a round that already entered its critical section
        finishes — and journals its spend — before the handle goes
        away. (Rounds re-check the closed flag under their session
        lock, so nothing new starts once the flag is up.) A closed
        service refuses new sessions and new answers; snapshots and
        budget reports still work. Call it at teardown — or use the
        service as a context manager — so many short-lived services in
        one process do not each leak an open ledger handle.
        :meth:`ServiceGateway.shutdown <repro.serve.gateway.ServiceGateway.shutdown>`
        calls it after draining the gateway.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # Sessions registered after this point were refused by the
            # closed-flag re-check inside open_session's locked section,
            # so this list is complete for barrier purposes.
            sessions = list(self._sessions.values())
        for session in sessions:
            with session.lock:
                pass  # barrier: in-flight rounds journal before we close
        if self.ledger is not None:
            self.ledger.close()

    def __enter__(self) -> "PMWService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_service_open(self) -> None:
        if self._closed:
            raise ValidationError(
                "service is closed (its budget ledger handle has been "
                "released); build or restore a new PMWService"
            )

    def gateway(self, **knobs) -> "ServiceGateway":
        """Build a :class:`~repro.serve.gateway.ServiceGateway` front end.

        Convenience constructor: ``service.gateway(workers=8,
        max_queue_depth=32)``. The gateway owns a worker pool with
        bounded per-session FIFO queues, admission control, and batch
        coalescing — see :mod:`repro.serve.gateway`.
        """
        from repro.serve.gateway import ServiceGateway

        return ServiceGateway(self, **knobs)

    # -- accounting ------------------------------------------------------------

    def budget_report(self) -> str:
        """Per-session and total budget position plus cache stats."""
        lines = ["PMWService budget report"]
        totals: dict[str, float] = {}
        for sid in self.session_ids:
            session = self.session(sid)
            total = session.accountant.total_basic()
            totals[session.dataset] = totals.get(session.dataset, 0.0) + \
                total.epsilon
            lines.append(
                f"  {sid} [{session.analyst}] on {session.dataset!r}: "
                f"eps={total.epsilon:g} delta={total.delta:g} "
                f"({session.accountant.num_spends} spends, "
                f"{session.queries_served} rounds served, "
                f"state={session.state}, halted={session.halted})"
            )
        for name, epsilon in totals.items():
            lines.append(f"  dataset {name!r}: basic-composed eps={epsilon:g}")
        stats = self.cache.stats()
        lines.append(
            f"  cache: {stats.entries} entries, hit rate "
            f"{stats.hit_rate:.1%} ({stats.hits} hits / {stats.misses} misses)"
        )
        return "\n".join(lines)

    # -- snapshot / restore ------------------------------------------------------

    def snapshot(self, path=None) -> dict:
        """Full service state (sessions + cache), JSON-serializable.

        Never contains the private datasets. When ``path`` is given the
        snapshot is written atomically (tmp + rename + directory fsync —
        without the fsync the rename itself could be lost on power
        failure, resurrecting the previous snapshot).

        With a ledger, the snapshot is stamped with the journal's
        ``last_seq`` at capture (``"ledger_seq"``), so a restore replays
        only the ledger *suffix* past the stamp. The stamp is taken
        *first*: any spend that lands while sessions are being captured
        has ``seq > stamp`` and each session's own ``last_spend_seq``
        (captured under its lock) tells the restore whether that spend is
        already inside the snapshotted accountant. For a stamp with no
        concurrent-writer caveats at all, checkpoint through
        :class:`~repro.serve.checkpoint.Checkpointer`, which quiesces the
        gateway around the capture.
        """
        ledger_seq = self.ledger.last_seq if self.ledger is not None \
            else None
        # Capture the cache BEFORE the sessions: with concurrent serving,
        # a tear then at worst omits a just-released answer from the cache
        # while its spend is in the accountant (over-accounting, safe) —
        # never a cached answer whose spend is missing.
        cache_state = self.cache.to_state()
        digests = {name: dataset_digest(data)
                   for name, data in self.datasets.items()}
        sessions = {}
        for sid in self.session_ids:
            record = self.session(sid).snapshot()
            record["dataset_digest"] = digests.get(record.get("dataset"))
            sessions[sid] = record
        with self._lock:
            answers = {
                key: {
                    "session": record["session"],
                    "fingerprint": record["fingerprint"],
                    "value": encode_answer_value(record["value"]),
                    "source": record["source"],
                    "query_index": (record["query_index"]
                                    if record["query_index"] is not None
                                    else -1),
                    "epsilon": record["epsilon"],
                    "delta": record["delta"],
                }
                for key, record in self._answers.items()
            }
        state = {
            "format": SNAPSHOT_FORMAT,
            "session_counter": self._session_counter,
            "cache_policy": self.cache_policy,
            "ledger_seq": ledger_seq,
            "sessions": sessions,
            "cache": cache_state,
            "answers": answers,
        }
        if path is not None:
            path = os.fspath(path)
            tmp = path + ".tmp"
            try:
                with open(tmp, "w", encoding="utf-8") as handle:
                    json.dump(state, handle)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
                fsync_dir(path)
            except BaseException:
                if os.path.exists(tmp):
                    os.remove(tmp)
                raise
        return state

    @classmethod
    def restore(cls, datasets, *, snapshot=None, ledger_path=None,
                ledger_fsync: bool = True,
                registry: MechanismRegistry | None = None,
                params_override: dict | None = None,
                cache_policy: str | None = None,
                backend: str | ArrayBackend | None = None,
                rng=None) -> "PMWService":
        """Rebuild a service after a restart (or crash).

        Two recovery tiers, composable:

        - ``snapshot`` (a dict or a path written by :meth:`snapshot`):
          full-fidelity restore — hypotheses, sparse-vector state, caches,
          and accountants all resume bit-for-bit.
        - ``ledger_path`` alone: cold resume — sessions are rebuilt fresh
          from their journaled configuration (hypotheses restart from
          uniform), but every accountant is rebuilt to the **exact**
          journaled totals, so no budget is ever double-spent or forgotten.

        When both are given, the tiers are *reconciled* on the ledger's
        ``seq`` watermark. A snapshot taken against a ledger carries a
        ``ledger_seq`` stamp; restore replays only the journal **suffix**
        past the stamp (the crash window) and applies it on top of the
        snapshotted accountants — O(crash window), not O(history). The
        ledger stays the budget authority: journaled spends the snapshot
        has not seen are never dropped, sessions opened post-snapshot are
        revived, and a stamped snapshot restored *without* its ledger (or
        against a ledger that ends before the stamp) fails loudly instead
        of silently under-reporting spent budget. Un-stamped snapshots
        (taken by a ledger-less service, or pre-stamp) keep the original
        full-replay reconciliation. If the journal was compacted after
        the stamp, per-record suffix replay is impossible (the rotation
        folded those records into baselines) and restore falls back to
        full-replay authority — which the rotation has just made cheap.

        ``params_override`` maps ``session_id -> params`` for sessions whose
        journaled configuration contained unjournalable values (e.g. a live
        oracle instance). ``cache_policy`` overrides the snapshotted
        answer-cache policy (defaults to the snapshot's, else ``"replay"``).
        ``backend`` sets the rebuilt service's default numeric backend for
        *new* sessions; restored sessions keep the backend their journaled
        params carry (override per session via ``params_override`` —
        hypothesis payloads are backend-independent float64, so a
        cross-backend restore is exact).
        """
        if snapshot is None and ledger_path is None:
            raise ValidationError(
                "restore needs a snapshot, a ledger_path, or both"
            )
        if isinstance(snapshot, (str, os.PathLike)):
            with open(snapshot, encoding="utf-8") as handle:
                snapshot = json.load(handle)
        if snapshot is not None and snapshot.get("format") != SNAPSHOT_FORMAT:
            raise ValidationError(
                f"unrecognized service snapshot format "
                f"{snapshot.get('format')!r}"
            )

        stamp = snapshot.get("ledger_seq") if snapshot is not None else None
        ledger_exists = (ledger_path is not None
                         and os.path.exists(os.fspath(ledger_path)))
        if stamp is not None and not ledger_exists:
            raise ValidationError(
                f"snapshot is stamped at ledger seq {stamp}: it was taken "
                f"against a budget ledger, which is the authority for any "
                f"spends journaled after the snapshot — restoring without "
                f"that ledger would silently under-report spent budget. "
                f"Pass ledger_path."
            )

        ledger_state = None   # full-replay authority
        suffix_state = None   # only the records past the snapshot stamp
        if ledger_exists:
            if stamp is not None:
                suffix_state = replay_ledger(ledger_path, from_seq=stamp)
                if suffix_state.last_seq < stamp:
                    raise ValidationError(
                        f"snapshot is stamped at ledger seq {stamp}, but "
                        f"{os.fspath(ledger_path)} ends at seq "
                        f"{suffix_state.last_seq}: a write-ahead journal "
                        f"never runs behind its snapshot, so this is not "
                        f"the ledger the snapshot was taken against"
                    )
                if suffix_state.compacted_through >= stamp:
                    # Rotated at-or-after the snapshot stamp: spends
                    # through the stamp are folded inside baseline
                    # records, so record-by-record suffix application is
                    # impossible. The suffix replay above already covers
                    # the whole rotated file (it opens at the rotation
                    # header), so it IS the full authority.
                    ledger_state, suffix_state = suffix_state, None
            else:
                ledger_state = replay_ledger(ledger_path)

        cache = (AnswerCache.from_state(snapshot["cache"])
                 if snapshot is not None else None)
        if cache_policy is None:
            cache_policy = (snapshot or {}).get("cache_policy", "replay")
        # The replay above already validated the journal range restore
        # trusts, so the ledger skips its own open-time integrity scan.
        service = cls(datasets, registry=registry, ledger_path=ledger_path,
                      ledger_fsync=ledger_fsync, ledger_validate=False,
                      cache=cache, cache_policy=cache_policy,
                      backend=backend, rng=rng)
        params_override = params_override or {}

        if snapshot is not None:
            service._session_counter = int(snapshot.get("session_counter", 0))
            for sid, record in snapshot["sessions"].items():
                service._restore_session_from_snapshot(
                    record, params_override.get(sid))
        if ledger_state is not None:
            # Sessions opened after the snapshot (or all of them, with no
            # snapshot) exist only in the journal: rebuild them too.
            for sid in ledger_state.session_ids:
                if sid not in service._sessions:
                    service._restore_session_from_ledger(
                        sid, ledger_state, params_override.get(sid))

        if ledger_state is not None:
            # The ledger is the budget authority: it saw every spend that
            # was acted on, including any after the last snapshot.
            for sid in service.session_ids:
                if sid in ledger_state.opens:
                    session = service.session(sid)
                    session.mechanism.accountant = \
                        ledger_state.accountant_for(sid)
                    session._journal_cursor = \
                        session.accountant.num_spends
                    spends = ledger_state.spends.get(sid, [])
                    if spends:
                        session.last_spend_seq = spends[-1]["seq"]
                if sid in ledger_state.closed:
                    service.session(sid).close()
        # Idempotency answers: the ledger is the authority (it saw every
        # keyed reply released before the crash); a stamped snapshot
        # seeds the map and the journal suffix layers the crash window
        # on top.
        if snapshot is not None:
            service._adopt_answer_records(snapshot.get("answers", {}))
        if ledger_state is not None:
            service._adopt_answer_records(ledger_state.answers)
        if suffix_state is not None:
            service._adopt_answer_records(suffix_state.answers)
            service._reconcile_ledger_suffix(suffix_state, stamp,
                                             params_override)
        if service.ledger is not None and stamp is None:
            # Sessions the journal has never seen (snapshot-restored onto a
            # new or foreign ledger) are adopted: journal their open record
            # and full spend history now, so this ledger alone can
            # reconstruct their totals at the next restore. (A stamped
            # snapshot restores against its own ledger — every session is
            # already journaled there.)
            known = set(ledger_state.opens) if ledger_state is not None else set()
            for sid in service.session_ids:
                if sid in known:
                    continue
                session = service.session(sid)
                accountant = session.accountant
                adopted_data = service.datasets.get(session.dataset)
                service.ledger.append_open(
                    sid, session.mechanism_name, session.params,
                    analyst=session.analyst, dataset=session.dataset,
                    universe_size=(adopted_data.universe.size
                                   if adopted_data is not None else None),
                    dataset_digest=(dataset_digest(adopted_data)
                                    if adopted_data is not None else None),
                    epsilon_budget=accountant.epsilon_budget,
                    delta_budget=accountant.delta_budget,
                )
                session._journal_cursor = 0
                seq = service.ledger.append_spends(
                    sid, session.consume_unjournaled())
                if seq >= 0:
                    session.last_spend_seq = seq
        # Never reissue an id: advance the minting counter past every
        # numeric suffix in use. Length-of-journal floors miss explicit
        # ids that *look* like future auto ids ("pmw-convex-0002" opened
        # by hand), and a post-restore open_session would collide.
        service._session_counter = max(service._session_counter,
                                       _max_id_counter(service.session_ids))
        return service

    def _reconcile_ledger_suffix(self, suffix, stamp: int,
                                 params_override: dict) -> None:
        """Apply the journal's crash window on top of a stamped snapshot.

        ``suffix`` holds only records with ``seq > stamp``. Three cases:

        - sessions opened in the window exist only in the journal —
          rebuild them cold (the suffix carries their complete history);
        - snapshotted sessions may have journaled spends the snapshot
          has not seen — append exactly those (each session's own
          ``last_spend_seq`` marks where its snapshotted accountant
          ends, so a spend that raced the capture is never re-applied);
        - sessions closed in the window are closed.
        """
        for sid in suffix.session_ids:
            if sid in self._sessions:
                continue
            self._restore_session_from_ledger(sid, suffix,
                                              params_override.get(sid))
            session = self.session(sid)
            session.mechanism.accountant = suffix.accountant_for(sid)
            session._journal_cursor = session.accountant.num_spends
            spends = suffix.spends.get(sid, [])
            if spends:
                session.last_spend_seq = spends[-1]["seq"]
        unknown = sorted(set(suffix.spends) - set(self._sessions))
        if unknown:
            raise ValidationError(
                f"ledger journals spends after seq {stamp} for sessions "
                f"the snapshot does not contain: {unknown}; the snapshot "
                f"and ledger disagree about the service's history"
            )
        for sid in self.session_ids:
            session = self.session(sid)
            spends = suffix.spends.get(sid, [])
            extra = [r for r in spends
                     if r["seq"] > session.last_spend_seq]
            if extra:
                # Extend in place (journal entries are trusted, like
                # from_records): appending keeps reconciliation
                # O(crash window) — rebuilding the accountant would be
                # the O(history) cost this path exists to avoid.
                session.accountant.spends.extend(
                    PrivacySpend(float(r["epsilon"]), float(r["delta"]),
                                 str(r.get("label", "")))
                    for r in extra
                )
                session._journal_cursor = session.accountant.num_spends
            if spends:
                session.last_spend_seq = max(session.last_spend_seq,
                                             spends[-1]["seq"])
            if sid in suffix.closed:
                session.close()

    # -- internals ---------------------------------------------------------------

    def _restore_session_from_snapshot(self, record: dict,
                                       override: dict | None) -> None:
        dataset_name = self._resolve_dataset(record.get("dataset") or None)
        snapshotted_digest = record.get("dataset_digest")
        if (snapshotted_digest is not None and snapshotted_digest
                != dataset_digest(self.datasets[dataset_name])):
            raise ValidationError(
                f"session {record['session_id']!r} was snapshotted over a "
                f"dataset with a different content digest than "
                f"{dataset_name!r}; refusing to resume over different data"
            )
        journaled = _journaled_params(record)
        params = dict(override) if override is not None else journaled
        _check_journalable(record["session_id"], params)
        mechanism = self.registry.restore(
            record["mechanism"], record["mechanism_snapshot"],
            self.datasets[dataset_name],
            rng=spawn_generators(self._rng, 1)[0], **params,
        )
        session = Session.restore({**record, "params": journaled}, mechanism)
        with self._lock:
            self._sessions[session.session_id] = session

    def _restore_session_from_ledger(self, sid: str, ledger_state,
                                     override: dict | None) -> None:
        record = ledger_state.opens[sid]
        dataset_name = self._resolve_dataset(record.get("dataset") or None)
        data = self.datasets[dataset_name]
        journaled_size = record.get("universe_size")
        if journaled_size is not None and journaled_size != data.universe.size:
            raise ValidationError(
                f"session {sid!r} was journaled over a universe of size "
                f"{journaled_size}, but dataset {dataset_name!r} has "
                f"{data.universe.size}; refusing to resume over different "
                f"data"
            )
        journaled_digest = record.get("dataset_digest")
        if (journaled_digest is not None
                and journaled_digest != dataset_digest(data)):
            raise ValidationError(
                f"session {sid!r} was journaled over a dataset with a "
                f"different content digest than {dataset_name!r}; refusing "
                f"to resume over different data"
            )
        params = (dict(override) if override is not None
                  else _journaled_params(record))
        _check_journalable(sid, params)
        mechanism = self.registry.create(
            record["mechanism"], self.datasets[dataset_name],
            rng=spawn_generators(self._rng, 1)[0], **params,
        )
        session = Session(sid, mechanism,
                          mechanism_name=record["mechanism"], params=params,
                          analyst=record.get("analyst", ""),
                          dataset=dataset_name)
        # The fresh mechanism started a *new* sparse-vector interaction;
        # its lifetime budget is owed, but only once the interaction is
        # first used — park it so resume totals stay exactly pre-crash.
        session.pending_spends = session.consume_unjournaled()
        with self._lock:
            self._sessions[sid] = session

    # -- exactly-once idempotency ------------------------------------------------

    def _recorded_answer(self, session_id: str,
                         key: str) -> ServeResult | None:
        """The reply already released under ``key``, or ``None``.

        A hit reconstructs the original :class:`ServeResult` bitwise —
        including the *original* spend figures, reported for fidelity
        (nothing is charged again) — without touching mechanism state,
        cache, or accountant.
        """
        with self._lock:
            record = self._answers.get(key)
        if record is None:
            return None
        if record["session"] != session_id:
            raise ValidationError(
                f"idempotency key {key!r} was minted for session "
                f"{record['session']!r}, not {session_id!r}; keys are "
                f"per-logical-request and must not be reused"
            )
        return ServeResult(
            session_id=session_id, fingerprint=record["fingerprint"],
            value=record["value"], source=record["source"],
            query_index=record["query_index"],
            epsilon_spent=record["epsilon"], delta_spent=record["delta"],
        )

    def _journal_answer(self, key: str | None,
                        result: ServeResult) -> ServeResult:
        """Journal ``result`` under ``key`` (durably, before the reply
        leaves the service) and remember it for replay. No-op without a
        key; idempotent for a key already journaled."""
        if key is None:
            return result
        with self._lock:
            if key in self._answers:
                return result
        if self.ledger is not None:
            self.ledger.append_answer(
                result.session_id, key, value=result.value,
                source=result.source,
                query_index=(result.query_index
                             if result.query_index is not None else -1),
                fingerprint=result.fingerprint,
                epsilon_spent=result.epsilon_spent,
                delta_spent=result.delta_spent)
        with self._lock:
            self._answers[key] = {
                "session": result.session_id,
                "fingerprint": result.fingerprint,
                "value": result.value, "source": result.source,
                "query_index": result.query_index,
                "epsilon": result.epsilon_spent,
                "delta": result.delta_spent,
            }
        return result

    def _adopt_answer_records(self, records: dict) -> None:
        """Rebuild the replay map from ledger ``answer`` records."""
        for key, record in records.items():
            query_index = int(record.get("query_index", -1))
            with self._lock:
                self._answers[key] = {
                    "session": record.get("session", ""),
                    "fingerprint": record.get("fingerprint", ""),
                    "value": decode_answer_value(record["value"]),
                    "source": record.get("source", ""),
                    "query_index": (query_index if query_index >= 0
                                    else None),
                    "epsilon": float(record.get("epsilon", 0.0)),
                    "delta": float(record.get("delta", 0.0)),
                }

    @staticmethod
    def _cache_result(session_id: str, fingerprint: str,
                      hit: CachedAnswer) -> ServeResult:
        """A zero-cost replay of an already-released answer."""
        return ServeResult(
            session_id=session_id, fingerprint=fingerprint,
            value=hit.value, source="cache", query_index=hit.query_index,
            epsilon_spent=0.0, delta_spent=0.0,
        )

    @staticmethod
    def _check_session_open(session: Session) -> None:
        if session.closed:
            raise ValidationError(
                f"session {session.session_id!r} is closed"
            )

    def _resolve_dataset(self, name: str | None) -> str:
        if name is None:
            if "default" in self.datasets:
                return "default"
            if len(self.datasets) == 1:
                return next(iter(self.datasets))
            raise ValidationError(
                f"dataset name required; available: "
                f"{sorted(self.datasets)}"
            )
        if name not in self.datasets:
            raise ValidationError(
                f"unknown dataset {name!r}; available: "
                f"{sorted(self.datasets)}"
            )
        return name

    def _next_session_id(self, mechanism: str) -> str:
        self._session_counter += 1
        return f"{mechanism}-{self._session_counter:04d}"

    @staticmethod
    def _arm_budget(mechanism, epsilon_budget, delta_budget) -> None:
        if epsilon_budget is None and delta_budget is None:
            return
        accountant = mechanism.accountant
        # Only arm what was asked for: a factory-armed budget stays armed.
        if epsilon_budget is not None:
            accountant.epsilon_budget = epsilon_budget
        if delta_budget is not None:
            accountant.delta_budget = delta_budget
        total = accountant.total_basic()
        if epsilon_budget is not None and total.epsilon > epsilon_budget:
            raise PrivacyBudgetExhausted(
                f"session construction already spent eps={total.epsilon:g} "
                f"> budget {epsilon_budget:g}",
                epsilon_spent=total.epsilon, epsilon_budget=epsilon_budget,
            )
        if delta_budget is not None and total.delta > delta_budget:
            raise PrivacyBudgetExhausted(
                f"session construction already spent delta={total.delta:g} "
                f"> budget {delta_budget:g}",
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PMWService(datasets={sorted(self.datasets)}, "
            f"sessions={len(self._sessions)}, "
            f"ledger={getattr(self.ledger, 'path', None)!r})"
        )


def dataset_digest(dataset: Dataset) -> str:
    """Content digest of a private dataset (universe + row multiset).

    Journaled in ledger ``open`` records so a restore against different
    data with a coincidentally equal universe size still fails loudly.
    Row order is irrelevant (datasets are multisets), so indices are
    sorted before hashing.
    """
    hasher = hashlib.sha256()
    hasher.update(np.ascontiguousarray(dataset.universe.points).tobytes())
    if dataset.universe.labels is not None:
        hasher.update(np.ascontiguousarray(dataset.universe.labels).tobytes())
    hasher.update(np.sort(dataset.indices).tobytes())
    return hasher.hexdigest()


#: Auto-minted ids end in ``-<counter>``; explicit ids may coincide.
_ID_SUFFIX = re.compile(r"-(\d+)$")


def _max_id_counter(session_ids) -> int:
    """Largest numeric id suffix in use (0 when none), so the minting
    counter can skip past ids a restore replayed — including explicit
    ones that merely look auto-minted."""
    best = 0
    for sid in session_ids:
        match = _ID_SUFFIX.search(sid)
        if match:
            best = max(best, int(match.group(1)))
    return best


__all__ = ["PMWService", "SNAPSHOT_FORMAT", "dataset_digest"]


#: Session params of the retired sharded hypothesis layout. Ledgers and
#: checkpoints written while it existed may still journal them; they
#: chose only a memory layout, never an answer, so a resume drops them
#: (a new ``open_session`` passing them still fails).
_RETIRED_PARAMS = ("shards", "histogram_workers")


def _journaled_params(record: dict) -> dict:
    params = dict(record.get("params") or {})
    for key in _RETIRED_PARAMS:
        params.pop(key, None)
    return params


def _check_journalable(session_id: str, params: dict) -> None:
    for key, value in params.items():
        if isinstance(value, dict) and "__unjournalable__" in value:
            raise ValidationError(
                f"session {session_id!r} was opened with unjournalable "
                f"param {key!r} ({value['__unjournalable__']}); supply it "
                f"via params_override to restore this session"
            )
