"""Per-analyst sessions: lifecycle around one interactive mechanism.

A :class:`Session` wraps one mechanism instance (any registered type —
:class:`PrivateMWConvex`, :class:`PrivateMWLinear`, or a plug-in) with the
state a serving layer needs and the mechanism itself does not provide:

- a uniform ``answer`` / ``answer_from_hypothesis`` surface across CM and
  linear mechanisms,
- a lock serializing the analyst's interaction (mechanisms are stateful and
  order-sensitive: the sparse vector is a stream),
- a journal cursor so every new :class:`PrivacyAccountant` spend is handed
  to the budget ledger exactly once,
- lifecycle (open -> halted -> closed) and snapshot/restore.

Sessions are created by :class:`repro.serve.service.PMWService`; direct
construction is supported for tests and embedding.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.pmw_cm import PMWAnswer
from repro.exceptions import ValidationError
from repro.losses.linear import LinearQuery
from repro.obs import trace

#: Lifecycle states. ``halted`` is derived from the mechanism (its update
#: budget ran out), not stored: a halted session still serves
#: hypothesis-path and cached answers.
OPEN = "open"
CLOSED = "closed"


@dataclass(frozen=True)
class ServeResult:
    """One served query, with its provenance and marginal privacy cost.

    Attributes
    ----------
    session_id, fingerprint:
        Which session answered which canonical query.
    value:
        ``theta`` (ndarray) for CM queries, a float for linear queries.
    source:
        ``"cache"`` — replay of an already-released answer (free);
        ``"hypothesis"`` — minimized over the public hypothesis (free);
        ``"no-update"`` — mechanism round, sparse vector said bottom;
        ``"update"`` — mechanism round that triggered an oracle call.
    query_index:
        The mechanism's stream position, or ``None`` for cache/hypothesis
        answers that never entered the stream.
    epsilon_spent, delta_spent:
        Marginal accountant spend caused by this query (0 for everything
        except ``"update"`` rounds and linear measurements). The first
        mechanism round after a cold (ledger-only) resume also carries the
        restarted sparse-vector interaction's deferred lifetime budget.
    """

    session_id: str
    fingerprint: str
    value: object
    source: str
    query_index: int | None
    epsilon_spent: float
    delta_spent: float

    @property
    def free(self) -> bool:
        """Whether this answer cost zero privacy budget."""
        return self.epsilon_spent == 0.0 and self.delta_spent == 0.0


class Session:
    """One analyst's interactive run against a private dataset.

    Parameters
    ----------
    session_id:
        Stable identifier; the ledger and cache key on it.
    mechanism:
        The wrapped mechanism instance.
    mechanism_name:
        Registry name used to rebuild the mechanism on restore.
    params:
        The (JSON-documentable) parameters the mechanism was built with;
        journaled by the ledger's ``open`` record.
    analyst:
        Free-form owner tag for multi-tenant bookkeeping.
    """

    def __init__(self, session_id: str, mechanism, *,
                 mechanism_name: str = "", params: dict | None = None,
                 analyst: str = "", dataset: str = "") -> None:
        self.session_id = str(session_id)
        self.mechanism = mechanism
        self.mechanism_name = mechanism_name
        self.params = dict(params or {})
        self.analyst = analyst
        self.dataset = dataset
        self.lock = threading.RLock()
        self._state = OPEN
        self._journal_cursor = 0
        self._queries_served = 0
        #: Ledger ``seq`` of this session's newest journaled spend (``-1``
        #: before any). Snapshots carry it, so a suffix-replaying restore
        #: knows exactly which journaled spends the snapshotted accountant
        #: already contains — even when the snapshot raced other sessions'
        #: writes between the service-wide stamp and this session's
        #: capture.
        self.last_spend_seq = -1
        #: Spends owed but not yet recorded or journaled — used by cold
        #: (ledger-only) resume: the restarted mechanism's fresh
        #: sparse-vector interaction is charged the moment it is first
        #: used, not at restore time, so resume totals stay exactly the
        #: pre-crash ones until the new interaction actually touches data.
        self.pending_spends: list[dict] = []

    # -- state -------------------------------------------------------------

    @property
    def state(self) -> str:
        """``"open"`` or ``"closed"``."""
        return self._state

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._state == CLOSED

    @property
    def halted(self) -> bool:
        """Whether the mechanism's update budget is exhausted."""
        return bool(self.mechanism.halted)

    @property
    def hypothesis_version(self) -> int | None:
        """The mechanism's monotone hypothesis version, if it has one.

        ``None`` for plug-in mechanisms without version tracking — the
        serving layer's update-aware cache then degrades gracefully to
        replay-forever for this session's hypothesis-derived answers.
        """
        version = getattr(self.mechanism, "hypothesis_version", None)
        return int(version) if version is not None else None

    @property
    def accountant(self):
        """The mechanism's :class:`PrivacyAccountant`."""
        return self.mechanism.accountant

    @property
    def queries_served(self) -> int:
        """Serving-layer rounds this session ran (mechanism + hypothesis
        answers; cache replays never reach the session). Monotone, so
        gateway metrics and load reports can diff it between polls."""
        return self._queries_served

    def close(self) -> None:
        """Mark the session closed; further answers raise."""
        with self.lock:
            self._state = CLOSED

    # -- answering ---------------------------------------------------------

    def answer(self, query) -> tuple[object, str, int]:
        """One mechanism round. Returns ``(value, source, query_index)``.

        ``source`` is ``"update"`` or ``"no-update"``. Raises
        :class:`MechanismHalted` when the update budget is exhausted —
        callers decide whether to fall back to :meth:`answer_from_hypothesis`.
        """
        with self.lock:
            self._check_open()
            with trace.span("session.answer", session=self.session_id):
                raw = self.mechanism.answer(query)
            self._queries_served += 1
        value, from_update, index = _unpack(raw)
        return value, ("update" if from_update else "no-update"), index

    def answer_from_hypothesis(self, query) -> object:
        """Answer from the public hypothesis only — pure post-processing."""
        with self.lock:
            self._check_open()
            if isinstance(query, LinearQuery):
                value = self.mechanism.hypothesis.dot(query.table)
            else:
                value = self.mechanism.answer_from_hypothesis(query).theta
            self._queries_served += 1
            return value

    def prewarm(self, queries) -> int:
        """Hand a whole mechanism lane to the engine before serving it.

        Delegates to the mechanism's ``prewarm`` hook (e.g.
        :meth:`repro.core.pmw_cm.PrivateMWConvex.prewarm`, which
        batch-computes data-side minimizations in one vectorized pass).
        Mechanisms without the hook — such as
        :class:`~repro.core.pmw_linear.PrivateMWLinear`, whose scalar
        round is two dot products — are a no-op. Never a privacy event:
        pre-warming only reorders non-private evaluation work.

        Returns the number of batch-prepared entries (0 when skipped).
        """
        warm = getattr(self.mechanism, "prewarm", None)
        if warm is None:
            return 0
        with self.lock:
            self._check_open()
            return int(warm(queries))

    # -- budget journaling ---------------------------------------------------

    def consume_unjournaled(self) -> list[dict]:
        """Accountant spends not yet handed to the ledger; advances the
        cursor, so each spend is returned exactly once."""
        with self.lock:
            records = self.accountant.to_records()
            fresh = records[self._journal_cursor:]
            self._journal_cursor = len(records)
            return fresh

    def flush_pending_spends(self) -> None:
        """Record any deferred spends into the accountant (budget-checked).

        Called before the mechanism's first data access after a cold
        resume; the recorded spends surface through the next
        :meth:`consume_unjournaled`, so they reach the ledger before the
        answer they pay for is released."""
        with self.lock:
            while self.pending_spends:
                record = self.pending_spends[0]
                # Spend before dequeueing, so a budget refusal leaves the
                # remaining obligations parked rather than dropped.
                self.accountant.spend(record["epsilon"], record["delta"],
                                      label=record.get("label", ""))
                self.pending_spends.pop(0)

    # -- snapshot / restore ---------------------------------------------------

    def snapshot(self) -> dict:
        """Session metadata plus the mechanism's full snapshot.

        Params are stored in journal form: values that cannot be
        serialized (e.g. a live oracle instance) become
        ``__unjournalable__`` markers, and restoring such a session
        requires ``params_override`` — same contract as the ledger.
        """
        from repro.serve.ledger import jsonable_params

        with self.lock:
            if not hasattr(self.mechanism, "snapshot"):
                raise ValidationError(
                    f"mechanism {type(self.mechanism).__name__} does not "
                    f"support snapshots"
                )
            return {
                "session_id": self.session_id,
                "mechanism": self.mechanism_name,
                "params": jsonable_params(self.params),
                "analyst": self.analyst,
                "dataset": self.dataset,
                "state": self._state,
                "hypothesis_version": self.hypothesis_version,
                "queries_served": self._queries_served,
                "journal_cursor": self._journal_cursor,
                "last_spend_seq": self.last_spend_seq,
                "pending_spends": [dict(r) for r in self.pending_spends],
                "mechanism_snapshot": self.mechanism.snapshot(),
            }

    @classmethod
    def restore(cls, snapshot: dict, mechanism) -> "Session":
        """Rebuild around an already-restored mechanism instance."""
        session = cls(
            snapshot["session_id"], mechanism,
            mechanism_name=snapshot.get("mechanism", ""),
            params=snapshot.get("params"),
            analyst=snapshot.get("analyst", ""),
            dataset=snapshot.get("dataset", ""),
        )
        session._state = snapshot.get("state", OPEN)
        session._queries_served = int(snapshot.get("queries_served", 0))
        session._journal_cursor = int(snapshot.get("journal_cursor", 0))
        session.last_spend_seq = int(snapshot.get("last_spend_seq", -1))
        session.pending_spends = [
            dict(r) for r in snapshot.get("pending_spends", [])
        ]
        return session

    # -- internals ------------------------------------------------------------

    def _check_open(self) -> None:
        if self._state == CLOSED:
            raise ValidationError(
                f"session {self.session_id!r} is closed"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(id={self.session_id!r}, "
            f"mechanism={self.mechanism_name or type(self.mechanism).__name__}, "
            f"state={self._state!r}, halted={self.halted})"
        )


def _unpack(raw) -> tuple[object, bool, int]:
    """Normalize a mechanism answer to ``(value, from_update, index)``."""
    if isinstance(raw, PMWAnswer):
        return raw.theta, raw.from_update, raw.query_index
    return raw.value, raw.from_update, raw.query_index


def query_fingerprint(query) -> str:
    """Canonical fingerprint for any servable query type."""
    fingerprint = getattr(query, "fingerprint", None)
    if fingerprint is None:
        raise ValidationError(
            f"query of type {type(query).__name__} has no fingerprint(); "
            f"servable queries are LossFunction and LinearQuery"
        )
    return fingerprint()


def try_fingerprint(query) -> str | None:
    """``query_fingerprint`` that degrades to ``None`` for queries whose
    state cannot be fingerprinted (e.g. a custom loss storing a callable).

    Such queries are still servable — they just can't ride the answer
    cache or in-batch dedup, mirroring the mechanism layer's own
    uncached-but-answered treatment."""
    from repro.exceptions import LossSpecificationError

    try:
        return query_fingerprint(query)
    except LossSpecificationError:
        return None


__all__ = ["Session", "ServeResult", "query_fingerprint",
           "try_fingerprint", "OPEN", "CLOSED"]
