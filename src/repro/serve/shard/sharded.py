"""`ShardedService` — sessions partitioned across worker processes.

The single-process gateway (E19) tops out near 257 rps because every
multiplicative-weights update competes for one GIL. This module escapes
it: sessions are partitioned across ``shards`` worker **processes** by
consistent-hash routing (:mod:`~repro.serve.shard.router`), each shard
owning its own write-ahead ledger + checkpointer directory
(:mod:`~repro.serve.shard.worker`). The parent supervises: it mints
session ids, routes each call to the owning shard over a per-shard
pipe, watches process sentinels for deaths, and — because routing is a
pure function of (session id, topology) — restores a killed shard onto
the *same* directory, where checkpoint + journal-suffix replay rebuilds
bitwise-exact accountant totals.

``ShardedService`` exposes the same serving surface the gateway
coalesces against (``session``/``serve_session_batch``/``close``), so
``sharded.gateway(workers=...)`` gives admission control, per-session
FIFO, and coalesced batches across all shards with zero gateway
changes — gateway worker threads spend their time blocked in pipe
``recv`` (no GIL held), so parent-side threading scales with shard
count.

Failure semantics
-----------------
A request routed to a dead shard — or in flight when its shard dies —
raises :class:`~repro.exceptions.ShardUnavailable`: a typed shed,
never silent loss. The restored shard's ledger is the authority on
whether the dying request's spends landed; because every spend is
journaled *before* its answer is released and checkpoints are taken
*after* the journal advances, re-asking the same query after restore
either replays the released answer from the restored cache (zero new
budget) or serves it fresh — never a double spend. The chaos suite
(``tests/chaos/``) pins this with deterministic kill points, SIGKILL
under load, and torn-journal injection.

Observability
-------------
The supervisor's own registry carries topology metrics —
``shard.alive`` gauges, ``shard.deaths``/``shard.restarts`` counters,
all shard-labeled. :meth:`ShardedService.metrics_snapshot` pulls each
live shard's registry snapshot over RPC and merges everything into one
:class:`~repro.obs.MetricsRegistry` document
(:meth:`~repro.obs.MetricsRegistry.merge_snapshot` — exact bucket-wise
histogram addition), caching the last pull per shard so a dead shard's
final numbers survive into later snapshots.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing import connection

from repro.data.shm import SharedDatasetExport
from repro.exceptions import (
    FrameError,
    ShardUnavailable,
    ValidationError,
)
from repro.obs.registry import MetricsRegistry
from repro.serve.resilience import CLOSED, CircuitBreaker, Deadline
from repro.serve.shard.frames import (
    FLAG_IDEMPOTENT,
    KIND_REPLY_ERR,
    KIND_REQUEST,
    VERBS,
    decode_frame,
    encode_frame,
)
from repro.serve.shard.interning import InternMiss, InternMirror
from repro.serve.shard.router import DEFAULT_VNODES, ConsistentHashRouter
from repro.serve.shard.worker import (
    FaultPlan,
    ShardSpec,
    shard_worker_main,
)

_TOPOLOGY_FORMAT = "repro.serve.shard/v1"
_TOPOLOGY_FILE = "topology.json"
_HEALTH_FORMAT = "repro.serve.shard-health/v1"
HEALTH_FILE = "health.json"


def read_shard_health(directory) -> dict[str, dict]:
    """``{shard_id: health record}`` for a deployment directory.

    Reads the per-shard ``health.json`` files the supervisor persists on
    every breaker transition (death → ``open``, restore → ``half-open``,
    first successful call → ``closed``), so an operator — or the
    ``repro-experiments shards`` verb — can inspect breaker state and
    last-death timestamps *without* a live supervisor. Shards that never
    got a health file (pre-resilience deployments, or a supervisor killed
    before its first write) are reported with ``{"breaker": "unknown"}``.
    """
    directory = os.fspath(directory)
    topo_path = os.path.join(directory, _TOPOLOGY_FILE)
    shard_ids: list[str] = []
    if os.path.exists(topo_path):
        with open(topo_path, encoding="utf-8") as handle:
            shard_ids = list(json.load(handle).get("shards", []))
    else:
        shard_ids = sorted(
            entry for entry in os.listdir(directory)
            if os.path.isdir(os.path.join(directory, entry)))
    health: dict[str, dict] = {}
    for shard_id in shard_ids:
        path = os.path.join(directory, shard_id, HEALTH_FILE)
        try:
            with open(path, encoding="utf-8") as handle:
                health[shard_id] = json.load(handle)
        except (OSError, ValueError):
            health[shard_id] = {"format": _HEALTH_FORMAT,
                                "shard_id": shard_id, "breaker": "unknown",
                                "deaths": 0, "restarts": 0,
                                "last_death_unix": None}
    return health


def _mp_context():
    """Prefer ``forkserver`` (workers fork from a clean, pre-imported
    template process — no parent gateway threads to inherit locks
    from, and ~one import cost total), fall back to ``spawn``. Plain
    ``fork`` is never used: forking a parent that runs gateway worker
    threads can clone a held lock into the child and deadlock it."""
    try:
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload(
            ["repro.serve.service", "repro.serve.shard.worker"])
        return ctx
    except ValueError:  # platform without forkserver
        return multiprocessing.get_context("spawn")


class _SessionStub:
    """Parent-side stand-in for a session living in a shard process.

    Carries exactly what the gateway and supervisor need locally —
    identity, owning shard, and the ``closed`` flag (tracked at the
    supervisor, which is the only path that closes sessions). The live
    :class:`~repro.serve.session.Session` (mechanism, accountant, lock)
    exists only inside the shard process.
    """

    __slots__ = ("session_id", "shard_id", "mechanism_name", "analyst",
                 "closed")

    def __init__(self, session_id: str, shard_id: str,
                 mechanism_name: str, analyst: str) -> None:
        self.session_id = session_id
        self.shard_id = shard_id
        self.mechanism_name = mechanism_name
        self.analyst = analyst
        self.closed = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"_SessionStub({self.session_id!r} on {self.shard_id!r}, "
                f"closed={self.closed})")


class _ShardHandle:
    """One worker process + its RPC pipe + liveness state.

    ``call`` serializes requests on a per-handle lock (the protocol is
    one-in-flight per pipe); a broken pipe or EOF marks the handle dead
    and raises :class:`ShardUnavailable`. Handles are immutable about
    identity: a restarted shard gets a *new* handle object — and with it
    a fresh :class:`~repro.serve.shard.interning.InternMirror` and a
    fresh shared-memory export — so a caller blocked on a dying handle
    can never observe the replacement's state, and a restarted worker's
    empty intern table is never referenced against stale mirror state.
    """

    def __init__(self, shard_id: str, process, conn, *,
                 shm_export: SharedDatasetExport | None = None) -> None:
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.alive = True
        self.mirror = InternMirror()
        self.shm_export = shm_export
        # Death accounting is separate from ``alive``: a caller thread
        # that trips over the corpse (EOF mid-call) marks the handle
        # dead immediately, but only the supervisor's _note_death may
        # count the death — exactly once per handle incarnation. The
        # event is set once that accounting (segment release and health
        # write included) is complete; every other _note_death caller
        # for this incarnation waits on it.
        self.death_counted = False
        self.death_handled = threading.Event()

    def call(self, verb: str, payload=None, *, deadline: float | None = None,
             flags: int = 0, timeout: float | None = None):
        """One frame RPC; ``deadline`` is remaining seconds (wire form).

        Request encoding (and with it the intern mirror's bookkeeping)
        happens under the handle lock, so mirror state advances in
        exactly the order the worker decodes — the invariant that keeps
        the two LRU tables identical. An :class:`InternMiss` reply is
        retried once with every query sent as a full definition; any
        other error reply is raised as the application error it carries.
        """
        verb_code = VERBS[verb]
        for force_define in (False, True):
            with self.lock:
                if not self.alive:
                    raise ShardUnavailable(
                        f"shard {self.shard_id!r} is down",
                        shard_id=self.shard_id, reason="dead")
                request = encode_frame(
                    KIND_REQUEST, verb_code,
                    [payload] if payload is not None else [],
                    deadline=deadline, flags=flags,
                    intern=self.mirror.encoder(force_define=force_define))
                try:
                    self.conn.send_bytes(request)
                    if timeout is not None and not self.conn.poll(timeout):
                        # The shard is alive but slow; the request stays
                        # in flight and the pipe is now desynchronized,
                        # so the handle must be retired, not reused.
                        self.mark_dead()
                        raise ShardUnavailable(
                            f"shard {self.shard_id!r} did not reply to "
                            f"{verb!r} within {timeout}s",
                            shard_id=self.shard_id, reason="timeout")
                    data = self.conn.recv_bytes()
                except (EOFError, OSError, BrokenPipeError):
                    self.mark_dead()
                    raise ShardUnavailable(
                        f"shard {self.shard_id!r} died during {verb!r}",
                        shard_id=self.shard_id, reason="died-in-flight",
                    ) from None
            try:
                reply = decode_frame(data)
            except FrameError:
                # The two ends no longer agree byte-for-byte; the pipe
                # cannot be resynchronized, so retire the handle.
                self.mark_dead()
                raise
            if reply.kind != KIND_REPLY_ERR:
                return reply.values[0] if reply.values else None
            error = (reply.values[0] if reply.values
                     else ValidationError("empty shard error reply"))
            if isinstance(error, InternMiss) and not force_define:
                # The worker's intern table lost entries the mirror
                # still believed in (restart race, eviction drift):
                # forget everything and resend with full definitions.
                self.mirror.reset()
                continue
            raise error

    def mark_dead(self) -> None:
        self.alive = False
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def release_shm(self) -> None:
        """Unlink this incarnation's shared-memory segment (idempotent).

        Called by the supervisor on death detection and at close — the
        ownership discipline that makes a SIGKILL'd worker unable to
        leak a segment (it only ever held an attachment).
        """
        if self.shm_export is not None:
            self.shm_export.close()


class ShardedService:
    """Partition sessions across worker processes with failover.

    Parameters
    ----------
    datasets:
        Dataset or ``{name: Dataset}`` mapping, as for
        :class:`~repro.serve.service.PMWService`. Shipped (pickled) to
        every shard at spawn.
    directory:
        Deployment root. Each shard owns ``<directory>/<shard_id>/``
        with its ledger and checkpoint dir inside;
        ``topology.json`` pins the shard count + vnodes so a restarted
        supervisor cannot silently reattach with a different ring (and
        misroute every session).
    shards:
        Worker process count.
    vnodes:
        Virtual nodes per shard on the hash ring.
    checkpoint_every:
        Per-shard :class:`~repro.serve.checkpoint.Checkpointer`
        journal-advance threshold (records past the last stamp);
        ``None`` disables periodic checkpoints.
    ledger_fsync:
        Per-record fsync on shard ledgers. Records are flushed to the
        OS either way (they survive a killed process — the chaos suite
        relies on it); fsync additionally survives power loss.
    cache_policy, rng:
        Forwarded to each shard's service; ``rng`` must be an integer
        seed (it crosses a process boundary), shard ``i`` derives
        ``rng + i``.
    backend:
        Default numeric backend *name* for every shard's service
        (crosses the spawn pickle, so instances are not accepted);
        ``None`` lets each worker resolve ``REPRO_BACKEND`` itself.
    auto_restore:
        When ``True`` (default) a monitor thread watches process
        sentinels and restores any shard that dies unexpectedly onto
        its directory. ``False`` leaves dead shards down until
        :meth:`restore_shard`.
    shared_datasets:
        When ``True`` (default) each worker incarnation receives its
        datasets — universe arrays, row indices, and the frozen
        histogram view — through a supervisor-owned shared-memory
        segment (:mod:`repro.data.shm`) and attaches them zero-copy;
        the spec pickle then carries only scalars. The supervisor
        unlinks a shard's segment when it detects the shard's death
        and at close. ``False`` ships pickled dataset copies (the
        pre-frames behavior; also the automatic fallback on platforms
        without shared memory).
    registry:
        Optional supervisor :class:`~repro.obs.MetricsRegistry` for
        topology metrics (fresh one by default).
    fault_plans:
        ``{shard_id: FaultPlan}`` chaos kill points, test use only.
    """

    def __init__(self, datasets, directory, *, shards: int = 2,
                 vnodes: int = DEFAULT_VNODES,
                 checkpoint_every: int | None = None,
                 ledger_fsync: bool = True, cache_policy: str = "replay",
                 backend: str | None = None,
                 rng: int | None = 0, auto_restore: bool = True,
                 shared_datasets: bool = True,
                 registry: MetricsRegistry | None = None,
                 fault_plans: dict[str, FaultPlan] | None = None) -> None:
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        if rng is not None and not isinstance(rng, int):
            raise ValidationError(
                "ShardedService rng must be an integer seed (it is "
                f"shipped across process boundaries), got {type(rng)!r}")
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.shard_ids = [f"shard-{index:02d}" for index in range(shards)]
        self._check_topology(shards, vnodes)
        self.router = ConsistentHashRouter(self.shard_ids, vnodes=vnodes)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._datasets = datasets
        self._rng = rng
        self._checkpoint_every = checkpoint_every
        self._ledger_fsync = bool(ledger_fsync)
        self._cache_policy = cache_policy
        if backend is not None and not isinstance(backend, str):
            raise ValidationError(
                f"sharded backend must be a registered name (the spec "
                f"crosses a process boundary), got "
                f"{type(backend).__name__}")
        self._backend = backend
        self._fault_plans = dict(fault_plans or {})
        # Per-incarnation shared-memory exports: ``True`` ships each
        # worker its datasets + frozen histogram view as a read-only
        # segment instead of a pickled copy; spawn falls back to the
        # pickle path when the platform refuses shared memory.
        self._shared_datasets = bool(shared_datasets)
        self._spawn_serial = 0
        self._ctx = _mp_context()
        self._lock = threading.Lock()
        # Serializes health.json writes (monitor, restore, routed-call
        # success and kill_shard can all write one shard's file); each
        # write gets its own tmp name.
        self._health_lock = threading.Lock()
        self._health_writes = 0
        # Test hook: called with the handle by whichever thread claims a
        # death, after the claim and before its side effects.
        self._death_claimed_hook = None
        self._handles: dict[str, _ShardHandle] = {}
        self._sessions: dict[str, _SessionStub] = {}
        self._session_counter = 0
        self._last_shard_snapshot: dict[str, dict] = {}
        self._closed = False
        self.auto_restore = bool(auto_restore)
        # Supervisor-side breakers: a death trips a shard's breaker open
        # immediately (threshold 1 — the supervisor *saw* the corpse, no
        # need to burn doomed calls), restore moves it to half-open, and
        # the first successful routed call closes it. reset_after=inf
        # makes transitions purely event-driven: an un-restored shard
        # stays open forever. Every transition is persisted to the
        # shard's ``health.json`` for offline operator inspection.
        self._breakers = {
            shard_id: CircuitBreaker(failure_threshold=1,
                                     reset_after=float("inf"))
            for shard_id in self.shard_ids}
        self._death_counts = dict.fromkeys(self.shard_ids, 0)
        self._restart_counts = dict.fromkeys(self.shard_ids, 0)
        self._last_death_unix: dict[str, float | None] = (
            dict.fromkeys(self.shard_ids))
        for shard_id in self.shard_ids:
            self._handles[shard_id] = self._spawn(
                shard_id, fault_plan=self._fault_plans.get(shard_id))
            self._write_health(shard_id)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-monitor", daemon=True)
        self._monitor.start()

    # -- topology ------------------------------------------------------------

    def _check_topology(self, shards: int, vnodes: int) -> None:
        """Pin (or validate) the deployment's ring shape on disk."""
        path = os.path.join(self.directory, _TOPOLOGY_FILE)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                state = json.load(handle)
            if (state.get("format") != _TOPOLOGY_FORMAT
                    or state.get("shards") != self.shard_ids
                    or state.get("vnodes") != vnodes):
                raise ValidationError(
                    f"deployment at {self.directory!r} was created with "
                    f"topology {state.get('shards')!r} x "
                    f"{state.get('vnodes')} vnodes; reattaching with "
                    f"{self.shard_ids!r} x {vnodes} would misroute "
                    f"sessions — use a matching topology or a fresh "
                    f"directory")
            return
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"format": _TOPOLOGY_FORMAT,
                       "shards": self.shard_ids, "vnodes": vnodes}, handle)
        os.replace(tmp, path)

    def shard_dir(self, shard_id: str) -> str:
        """A shard's ledger/checkpoint directory."""
        if shard_id not in self.shard_ids:
            raise ValidationError(f"unknown shard {shard_id!r}")
        return os.path.join(self.directory, shard_id)

    def _spawn(self, shard_id: str,
               fault_plan: FaultPlan | None = None) -> _ShardHandle:
        seed = None if self._rng is None else (
            self._rng + self.shard_ids.index(shard_id))
        export = None
        if self._shared_datasets:
            self._spawn_serial += 1
            try:
                export = SharedDatasetExport(
                    self._datasets, owner_pid=os.getpid(),
                    tag=f"{shard_id}_g{self._spawn_serial}")
            except OSError:  # platform without usable shared memory
                export = None
        spec = ShardSpec(
            shard_id=shard_id, directory=self.shard_dir(shard_id),
            datasets=None if export is not None else self._datasets,
            rng=seed,
            checkpoint_every=self._checkpoint_every,
            ledger_fsync=self._ledger_fsync,
            cache_policy=self._cache_policy, backend=self._backend,
            fault_plan=fault_plan,
            shm_manifest=export.manifest if export is not None else None)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=shard_worker_main, args=(child_conn, spec),
            name=f"repro-{shard_id}", daemon=True)
        try:
            process.start()
        except BaseException:
            if export is not None:
                export.close()
            raise
        # Drop the parent's copy of the child end: the worker's death
        # must read as EOF on parent_conn, not a half-open socket.
        child_conn.close()
        self.registry.gauge("shard.alive", {"shard": shard_id}).set(1)
        return _ShardHandle(shard_id, process, parent_conn,
                            shm_export=export)

    # -- liveness ------------------------------------------------------------

    def _write_health(self, shard_id: str) -> None:
        """Persist a shard's breaker state + death accounting to its
        ``health.json`` (atomic replace). Called on every transition so
        the file is always current for offline inspection."""
        shard_dir = self.shard_dir(shard_id)
        os.makedirs(shard_dir, exist_ok=True)
        path = os.path.join(shard_dir, HEALTH_FILE)
        # The record is read under the same lock that orders the
        # writes, so the last write to land carries the latest state.
        with self._health_lock:
            record = {
                "format": _HEALTH_FORMAT,
                "shard_id": shard_id,
                "breaker": self._breakers[shard_id].state,
                "deaths": self._death_counts[shard_id],
                "restarts": self._restart_counts[shard_id],
                "last_death_unix": self._last_death_unix[shard_id],
                "updated_unix": time.time(),
            }
            self._health_writes += 1
            tmp = f"{path}.{os.getpid()}.{self._health_writes}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(record, handle)
            os.replace(tmp, path)

    def breaker_states(self) -> dict[str, str]:
        """``{shard_id: breaker state}`` for the whole deployment."""
        return {shard_id: breaker.state
                for shard_id, breaker in self._breakers.items()}

    def _note_success(self, shard_id: str) -> None:
        """A routed call succeeded: close a non-closed breaker (the
        half-open probe passed — or the shard recovered out of band)."""
        breaker = self._breakers.get(shard_id)
        if breaker is None or breaker.state == CLOSED:
            return
        breaker.record_success()
        self._write_health(shard_id)

    def _monitor_loop(self) -> None:
        while not self._closed:
            with self._lock:
                watched = {handle.process.sentinel: handle
                           for handle in self._handles.values()
                           if handle.alive}
            if not watched:
                time.sleep(0.05)
                continue
            ready = connection.wait(list(watched), timeout=0.2)
            if self._closed:
                return
            for sentinel in ready:
                handle = watched[sentinel]
                self._note_death(handle)
                if self.auto_restore and not self._closed:
                    try:
                        self.restore_shard(handle.shard_id)
                    except ValidationError:  # pragma: no cover - races close
                        return

    def _note_death(self, handle: _ShardHandle) -> None:
        """Record a shard death exactly once per handle incarnation
        (the handle may already be marked dead by a caller thread that
        got EOF mid-call — the counter must still tick).

        Every caller returns only after the accounting is complete: the
        thread that claims the death does it, any other waits for it.
        So :meth:`kill_shard` stays synchronous even when the monitor
        saw the corpse first."""
        with self._lock:
            claimed = not handle.death_counted
            if claimed:
                handle.death_counted = True
                handle.mark_dead()
                self.registry.counter(
                    "shard.deaths", {"shard": handle.shard_id}).inc()
                self.registry.gauge(
                    "shard.alive", {"shard": handle.shard_id}).set(0)
                self._death_counts[handle.shard_id] += 1
                self._last_death_unix[handle.shard_id] = time.time()
                self._breakers[handle.shard_id].trip()
        if not claimed:
            handle.death_handled.wait()
            return
        try:
            if self._death_claimed_hook is not None:
                self._death_claimed_hook(handle)
            # The dead incarnation's shared-memory segment is garbage
            # the moment the corpse is seen: the worker only ever held
            # an attachment (reclaimed by the kernel with the process),
            # so the supervisor unlinking here is what guarantees a
            # SIGKILL'd worker never strands a segment.
            handle.release_shm()
            self._write_health(handle.shard_id)
        finally:
            handle.death_handled.set()

    def kill_shard(self, shard_id: str) -> int:
        """SIGKILL a shard process (chaos primitive). Returns the pid.

        Waits for the process to actually die before returning, so a
        caller can immediately assert on failure behavior; restore is
        the monitor's job (``auto_restore``) or the caller's
        (:meth:`restore_shard`).
        """
        handle = self._handle(shard_id)
        pid = handle.process.pid
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already dead (and reaped): account for it all the same
        handle.process.join()
        self._note_death(handle)
        return pid

    def restore_shard(self, shard_id: str) -> None:
        """Relaunch a dead shard onto its directory (checkpoint +
        journal-suffix restore happens inside the new worker). No-op
        when the shard is already alive."""
        with self._lock:
            if self._closed:
                raise ValidationError("service is closed")
            handle = self._handles.get(shard_id)
            if handle is None:
                raise ValidationError(f"unknown shard {shard_id!r}")
            if handle.alive:
                return
            self._handles[shard_id] = self._spawn(shard_id)
            self.registry.counter(
                "shard.restarts", {"shard": shard_id}).inc()
            self._restart_counts[shard_id] += 1
            self._breakers[shard_id].note_restore()
        self._write_health(shard_id)

    def wait_alive(self, shard_id: str, *, timeout: float = 30.0) -> None:
        """Block until a shard answers a ping (post-restore barrier)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self._handle(shard_id).call("ping")
                self._note_success(shard_id)
                return
            except ShardUnavailable:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.02)

    def ping(self, shard_id: str) -> dict:
        """One worker's liveness/identity report: pid, session count,
        intern-table size, cumulative in-worker serve seconds, and last
        journal seq. The serve-seconds clock is what the E22 benchmark
        subtracts from supervisor-observed wall time to price the frame
        protocol itself."""
        result = self._handle(shard_id).call("ping")
        self._note_success(shard_id)
        return result

    def shard_states(self) -> dict[str, bool]:
        """``{shard_id: alive}`` right now."""
        with self._lock:
            return {shard_id: handle.alive
                    for shard_id, handle in self._handles.items()}

    def _handle(self, shard_id: str) -> _ShardHandle:
        with self._lock:
            handle = self._handles.get(shard_id)
        if handle is None:
            raise ValidationError(f"unknown shard {shard_id!r}")
        return handle

    # -- sessions ------------------------------------------------------------

    def open_session(self, mechanism: str = "pmw-convex", *,
                     dataset: str | None = None, analyst: str = "analyst",
                     session_id: str | None = None,
                     epsilon_budget: float | None = None,
                     delta_budget: float | None = None,
                     rng: int | None = None, **params) -> str:
        """Open a session on the shard the router assigns it to.

        Mirrors :meth:`PMWService.open_session
        <repro.serve.service.PMWService.open_session>`, with one
        process-boundary restriction: ``rng`` must be an integer seed
        or ``None`` (``None`` derives a deterministic per-session seed
        from the service seed and the session id, so reopening the same
        id after a full restart yields the same stream).
        """
        self._check_open()
        if rng is not None and not isinstance(rng, int):
            raise ValidationError(
                "sharded open_session needs an integer rng seed "
                f"(it crosses a process boundary), got {type(rng)!r}")
        with self._lock:
            if session_id is None:
                self._session_counter += 1
                session_id = f"{mechanism}-{self._session_counter:04d}"
            if session_id in self._sessions:
                raise ValidationError(
                    f"session id {session_id!r} already in use")
        shard_id = self.router.route(session_id)
        if rng is None and self._rng is not None:
            # Stable across restarts and independent of open order —
            # unlike the single-process service's spawn-in-open-order
            # stream, which a concurrent topology could not reproduce.
            rng = (self._rng * 1_000_003 + len(session_id)
                   + sum(session_id.encode())) % (2**31)
        payload = {"mechanism": mechanism, "dataset": dataset,
                   "analyst": analyst, "session_id": session_id,
                   "epsilon_budget": epsilon_budget,
                   "delta_budget": delta_budget, "rng": rng, **params}
        self._handle(shard_id).call("open_session", payload)
        with self._lock:
            self._sessions[session_id] = _SessionStub(
                session_id, shard_id, mechanism, analyst)
        return session_id

    def session(self, session_id: str) -> _SessionStub:
        """The parent-side stub for a session (gateway contract)."""
        with self._lock:
            if session_id not in self._sessions:
                raise ValidationError(f"unknown session {session_id!r}")
            return self._sessions[session_id]

    @property
    def session_ids(self) -> list[str]:
        """Ids of all sessions, in open order."""
        with self._lock:
            return list(self._sessions)

    def shard_of(self, session_id: str) -> str:
        """The shard owning a session."""
        return self.session(session_id).shard_id

    def close_session(self, session_id: str) -> None:
        """Close a session on its shard and mark the stub closed."""
        stub = self.session(session_id)
        self._route_call(stub, "close_session", {"session_id": session_id})
        stub.closed = True

    # -- serving -------------------------------------------------------------

    def serve_session_batch(self, session_id: str, queries, *,
                            use_cache: bool = True,
                            on_halt: str = "hypothesis",
                            idempotency_keys=None, deadline=None):
        """Serve one session's batch on its owning shard.

        The unit the gateway's coalescer submits; answers align with
        ``queries``. Raises :class:`ShardUnavailable` when the owning
        shard is down or dies mid-batch (the request may or may not
        have journaled — the restored ledger is the authority; see the
        module docstring). ``idempotency_keys`` (one per query, or
        ``None``) cross the RPC boundary verbatim, flagged in the frame
        header; ``deadline`` rides the header as remaining seconds
        (monotonic clocks are per-process) and is rebuilt worker-side.
        Repeat queries cross as 16-byte interned fingerprints rather
        than re-serialized objects (:mod:`~repro.serve.shard.
        interning`).
        """
        self._check_open()
        stub = self.session(session_id)
        keys = list(idempotency_keys) if idempotency_keys is not None \
            else None
        return self._route_call(stub, "serve_batch", {
            "session_id": session_id, "queries": list(queries),
            "use_cache": use_cache, "on_halt": on_halt,
            "idempotency_keys": keys},
            deadline=Deadline.wire_or_none(deadline),
            flags=FLAG_IDEMPOTENT if keys is not None else 0)

    def submit(self, session_id: str, query, *, use_cache: bool = True,
               on_halt: str = "raise", idempotency_key: str | None = None,
               deadline=None):
        """Serve one query on the session's owning shard."""
        self._check_open()
        stub = self.session(session_id)
        return self._route_call(stub, "submit", {
            "session_id": session_id, "query": query,
            "use_cache": use_cache, "on_halt": on_halt,
            "idempotency_key": idempotency_key},
            deadline=Deadline.wire_or_none(deadline),
            flags=FLAG_IDEMPOTENT if idempotency_key is not None else 0)

    def _route_call(self, stub: _SessionStub, verb: str, payload, *,
                    deadline: float | None = None, flags: int = 0):
        try:
            result = self._handle(stub.shard_id).call(
                verb, payload, deadline=deadline, flags=flags)
        except ShardUnavailable as exc:
            exc.session_id = stub.session_id
            raise
        self._note_success(stub.shard_id)
        return result

    def gateway(self, **knobs):
        """A :class:`~repro.serve.gateway.ServiceGateway` fronting this
        sharded service — admission control, per-session FIFO, and
        coalesced batches across all shards, unchanged."""
        from repro.serve.gateway import ServiceGateway

        return ServiceGateway(self, **knobs)

    # -- durability ----------------------------------------------------------

    def checkpoint(self) -> dict[str, str]:
        """Force a checkpoint on every live shard; ``{shard: path}``."""
        self._check_open()
        paths = {}
        for shard_id in self.shard_ids:
            try:
                paths[shard_id] = self._handle(shard_id).call("checkpoint")
            except ShardUnavailable:
                continue
        return paths

    def budget_records(self) -> dict[str, list[dict]]:
        """``{session_id: accountant records}`` across all live shards —
        the bitwise ground truth the chaos suite compares against a
        single-process oracle."""
        merged: dict[str, list[dict]] = {}
        for shard_id in self.shard_ids:
            try:
                merged.update(self._handle(shard_id).call("budget_records"))
            except ShardUnavailable:
                continue
        return merged

    # -- observability -------------------------------------------------------

    def metrics_snapshot(self, *, per_shard: bool = True) -> dict:
        """One merged registry snapshot for the whole deployment.

        Pulls each live shard's registry over RPC (caching the result,
        so a shard that dies later still contributes its last-known
        numbers), then merges supervisor topology metrics and every
        shard snapshot into a fresh registry. ``per_shard=True`` labels
        each shard's series with ``{"shard": id}``; ``False`` merges
        unlabeled, so counters and histogram buckets sum across shards
        into one aggregate series (exactly —
        :meth:`~repro.obs.MetricsRegistry.merge_snapshot`).
        """
        for shard_id in self.shard_ids:
            try:
                self._last_shard_snapshot[shard_id] = (
                    self._handle(shard_id).call("metrics"))
            except (ShardUnavailable, ValidationError):
                continue  # keep the cached last pull, if any
        merged = MetricsRegistry()
        merged.merge_snapshot(self.registry.snapshot())
        for shard_id, snap in sorted(self._last_shard_snapshot.items()):
            labels = {"shard": shard_id} if per_shard else None
            merged.merge_snapshot(snap, labels=labels)
        return merged.snapshot()

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ValidationError("ShardedService is closed")

    def close(self) -> None:
        """Graceful teardown: final metrics pull + clean worker exit.

        Each live shard gets a ``shutdown`` RPC whose reply *is* its
        final registry snapshot (cached for post-mortem
        :meth:`metrics_snapshot` calls) — the ordering fix the
        single-process gateway got in this PR, applied per shard: the
        last telemetry pull happens strictly before the shard's ledger
        handle is released. Idempotent.
        """
        if self._closed:
            return
        self._closed = True  # monitor loop: stop restoring
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            if not handle.alive:
                handle.release_shm()
                continue
            try:
                final = handle.call("shutdown")
                self._last_shard_snapshot[handle.shard_id] = final
            except (ShardUnavailable, ValidationError, FrameError):
                pass
            handle.mark_dead()
            handle.process.join(timeout=10.0)
            if handle.process.is_alive():  # pragma: no cover - stuck child
                handle.process.terminate()
                handle.process.join()
            handle.release_shm()
            self.registry.gauge(
                "shard.alive", {"shard": handle.shard_id}).set(0)
        if self._monitor.is_alive():
            self._monitor.join(timeout=2.0)

    shutdown = close

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        states = self.shard_states()
        return (f"ShardedService(shards={len(states)}, "
                f"alive={sum(states.values())}, "
                f"sessions={len(self._sessions)}, "
                f"directory={self.directory!r})")


__all__ = ["HEALTH_FILE", "ShardedService", "read_shard_health"]
