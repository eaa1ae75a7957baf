"""Online Private Multiplicative Weights for CM queries (Figure 3).

:class:`PrivateMWConvex` is the paper's mechanism. It answers an adaptively
chosen stream of convex-minimization queries on a private dataset:

1. Maintain a public hypothesis histogram ``Dhat`` (initially uniform).
2. For each incoming loss ``l_j``, compute the error query
   ``q_j(D) = err_{l_j}(D, Dhat)`` (Definition 2.3; sensitivity ``3S/n``)
   and feed it to the online sparse-vector algorithm.
3. On ``bottom``: the hypothesis already answers well — return
   ``argmin_theta l_j(theta; Dhat)``, at zero privacy cost.
4. On ``top``: call the single-query oracle ``A'`` at the per-round budget
   ``(eps0, delta0)`` to obtain ``theta_t``, return it, extract the
   dual-certificate vector ``u_t`` (Claim 3.5), and apply the MW update.
5. The bounded-regret argument caps updates at ``T``; privacy is the
   composition of the sparse vector (``eps/2, delta/2``) with the ``T``
   oracle calls (``eps/2, delta/2`` via Theorem 3.10) — Theorem 3.9.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.backend import ArrayBackend, resolve_backend
from repro.core.accuracy import DatabaseErrorBreakdown
from repro.core.config import PMWConfig
from repro.core.update import dual_certificate, mw_step, mw_step_inplace
from repro.data.dataset import Dataset
from repro.data.histogram import Histogram
from repro.data.log_histogram import LogHistogram
from repro.dp.accountant import PrivacyAccountant, restore_accountant
from repro.dp.composition import PrivacyParameters, advanced_composition
from repro.dp.sparse_vector import SparseVector
from repro.engine.memo import shared_minima
from repro.erm.oracle import SingleQueryOracle
from repro.exceptions import (
    LossSpecificationError,
    MechanismHalted,
    PrivacyBudgetExhausted,
    ValidationError,
)
from repro.losses.base import LossFunction
from repro.obs import trace
from repro.optimize.lockstep import lockstep_eligible
from repro.optimize.minimize import MinimizeResult, minimize_loss
from repro.utils.rng import spawn_generators


@dataclass(frozen=True)
class PMWAnswer:
    """One answered CM query.

    Attributes
    ----------
    theta:
        The released parameter ``theta_hat_j``.
    from_update:
        ``True`` if this query triggered an oracle call and MW update
        (sparse vector said ``top``); ``False`` if it was answered from
        the public hypothesis.
    query_index:
        0-based position in the query stream.
    update_index:
        The update round ``t`` (0-based) if ``from_update``, else ``None``.
    """

    theta: np.ndarray
    from_update: bool
    query_index: int
    update_index: int | None = None


@dataclass
class _MemoRecord:
    """What a mechanism remembers about one loss fingerprint.

    ``data`` is ``min_theta l(theta; D)``, fixed for the mechanism's
    lifetime. ``theta`` is the latest hypothesis-side minimizer and
    ``version`` the hypothesis version it was solved at: at the current
    version it is the answer, at an older one only a warm start.
    ``loss_on_data`` is ``l(theta; D)`` once an :meth:`~PrivateMWConvex.answer`
    round has computed it at ``version``; with ``data`` it rebuilds that
    round's whole :class:`DatabaseErrorBreakdown` from the same floats.
    """

    data: MinimizeResult | None = None
    version: int = -1
    theta: np.ndarray | None = None
    loss_on_data: float | None = None

    def solved(self, version: int, theta: np.ndarray) -> None:
        """Hold a hypothesis-side minimizer solved at ``version``."""
        self.version, self.theta, self.loss_on_data = version, theta, None

    def breakdown(self) -> DatabaseErrorBreakdown:
        """The round whose pieces this record holds."""
        return DatabaseErrorBreakdown.from_parts(self.data, self.theta,
                                                 self.loss_on_data)


class PrivateMWConvex:
    """The Figure 3 mechanism.

    Class attributes
    ----------------
    DATA_MINIMA_LIMIT:
        LRU bound on the mechanism's record table (one
        :class:`_MemoRecord` per distinct loss fingerprint, holding both
        inner minimizations of a round), and on the minima all mechanisms
        over one dataset share (:mod:`repro.engine.memo`). A record at
        the current hypothesis version replays its round — solver,
        loss-on-data pass, error query — without recomputing; an MW
        update makes every record stale by bumping the version. Eviction
        only costs a recomputation; correctness is unaffected.

    Parameters
    ----------
    dataset:
        The private dataset ``D``.
    oracle:
        A :class:`SingleQueryOracle`; it is re-budgeted to the per-round
        ``(eps0, delta0)`` derived by the schedule.
    scale:
        The family scale bound ``S`` (every submitted loss must satisfy
        ``loss.scale_bound() <= scale``; violations raise).
    alpha, beta:
        Accuracy target of Definition 2.4.
    epsilon, delta:
        Total privacy budget (Theorem 3.9's guarantee).
    schedule:
        ``"paper"`` or ``"calibrated"`` — see :class:`PMWConfig`.
    max_updates:
        Optional override of the update budget ``T``.
    solver_steps:
        Iteration budget for inner (non-private) minimizations.
    noise_multiplier:
        Forwarded to the sparse vector; values below 1 void the formal
        privacy guarantee (ablations only).
    versioned_core:
        ``True`` (default) keeps the hypothesis in the version-stamped
        log-domain accumulator (:class:`~repro.data.log_histogram.LogHistogram`):
        MW updates are in-place accumulations, repeated queries at an
        unchanged version replay their full round evaluation from the
        record table, and hypothesis-side solves warm-start from the
        previous round.
        ``False`` is the legacy immutable-histogram path (one fresh
        histogram and one cold solve per round) — kept for ablations and
        the hot-loop benchmark baseline.
    warm_start:
        With the versioned core, seed each hypothesis-side solve from the
        same query's previous minimizer at a reduced step budget
        (``solver_steps // 4``, at least 25). Purely an inner-solver
        change: answers remain valid minimizers, just reached cheaper.
    backend:
        Numeric :class:`~repro.backend.base.ArrayBackend` (instance or
        registered name) running the MW hot path. ``None`` resolves via
        ``REPRO_BACKEND`` to the bitwise-default NumPy backend.
        Accelerated backends keep released answers within the documented
        ``1e-6`` agreement band; snapshots remain backend-independent
        ``float64``.
    rng:
        Seed or generator; split into independent streams for the sparse
        vector and the oracle.
    """

    DATA_MINIMA_LIMIT = 1024
    #: How many versions old a warm start may be and still justify the
    #: reduced step budget. One MW step moves the hypothesis by at most
    #: O(eta) in total variation; across many steps that bound (and the
    #: near-solution argument with it) decays, so staler starts keep the
    #: full budget (still seeded — a start can only improve best-seen).
    WARM_STALENESS_LIMIT = 4

    def __init__(self, dataset: Dataset, oracle: SingleQueryOracle, *,
                 scale: float, alpha: float, beta: float = 0.05,
                 epsilon: float = 1.0, delta: float = 1e-6,
                 schedule: str = "calibrated", max_updates: int | None = None,
                 solver_steps: int = 400, noise_multiplier: float = 1.0,
                 versioned_core: bool = True, warm_start: bool = True,
                 backend: str | ArrayBackend | None = None,
                 rng=None) -> None:
        self._dataset = dataset
        self._data_histogram = dataset.histogram()  # private: never released
        self.config = PMWConfig.from_targets(
            alpha=alpha, beta=beta, epsilon=epsilon, delta=delta,
            scale=scale, universe_size=dataset.universe.size,
            schedule=schedule, max_updates=max_updates,
        )
        self.solver_steps = int(solver_steps)
        if self.solver_steps < 1:
            raise ValidationError("solver_steps must be >= 1")

        sv_rng, oracle_rng = spawn_generators(rng, 2)
        self._oracle_rng = oracle_rng
        self.accountant = PrivacyAccountant()
        self._sparse_vector = SparseVector(
            alpha=self.config.alpha,
            sensitivity=self.config.sensitivity(dataset.n),
            epsilon=self.config.sv_epsilon,
            delta=self.config.sv_delta,
            max_above=self.config.max_updates,
            rng=sv_rng,
            noise_multiplier=noise_multiplier,
            accountant=self.accountant,
        )
        self._oracle = oracle.with_budget(self.config.oracle_epsilon,
                                          self.config.oracle_delta)
        self.versioned_core = bool(versioned_core)
        self.warm_start = bool(warm_start) and self.versioned_core
        self.warm_solver_steps = max(1, min(self.solver_steps,
                                            max(25, self.solver_steps // 4)))
        self._backend = resolve_backend(backend)
        self.backend_name = self._backend.name
        universe = dataset.universe
        if self.versioned_core:
            self._core: LogHistogram | None = LogHistogram(
                universe, backend=self._backend)
            self._hypothesis = None
        else:
            self._core = None
            self._hypothesis = Histogram(
                universe, np.full(universe.size, 1.0 / universe.size),
                backend=self._backend)
        # One record per loss fingerprint (see _MemoRecord): a repeated
        # query pays one data-side minimization and one hypothesis-side
        # solve per version. Records survive updates (as warm starts)
        # and, unlike object identity, snapshot/restore.
        self._records: OrderedDict[str, _MemoRecord] = OrderedDict()
        # The current serving lane's batchable losses, keyed by
        # fingerprint (registered by prewarm, replaced per lane), each
        # with whether its minimum has a shared closed form. On a
        # hypothesis-side miss for a closed-form member, the lane's
        # closed-form solves at the current version collapse into one
        # shared-moment engine pass. Iterative (lockstep) members batch
        # only once the mechanism has halted: before that, an MW update
        # would discard a batch solved ahead of its rounds.
        self._lane_minima: OrderedDict[str, tuple[LossFunction, bool]] = \
            OrderedDict()
        self._answers: list[PMWAnswer] = []
        self._updates = 0
        self._history: list[dict] = []
        # Data-side minima of losses whose state cannot be fingerprinted
        # (e.g. stored callables): identity-keyed, GC-bound, never
        # serialized. Their hypothesis-side solves are not memoized.
        self._data_minima_by_identity = weakref.WeakKeyDictionary()
        # Minima every mechanism over this dataset object shares (see
        # repro.engine.memo): data-side solves, and cold solves on the
        # uniform prior. Hits are copied into the record table above, so
        # snapshots and warm starts read exactly as if this session had
        # solved them itself.
        self._shared = shared_minima(dataset, limit=self.DATA_MINIMA_LIMIT)

    # -- public state ---------------------------------------------------------

    @property
    def hypothesis(self) -> Histogram:
        """The current public hypothesis ``Dhat_t`` (safe to release).

        With the versioned core this is a frozen (immutable) view,
        cached per version — repeated reads between updates return the
        same object.
        """
        if self._core is not None:
            return self._core.freeze()
        return self._hypothesis

    @property
    def hypothesis_version(self) -> int:
        """Monotone version of the public hypothesis.

        Bumped exactly once per MW update; equal versions mean the
        identical distribution. The serving layer's update-aware answer
        cache and the engine's versioned evaluators key on this. The
        legacy (non-versioned) path reports the update count, which
        bumps at the same moments.
        """
        if self._core is not None:
            return self._core.version
        return self._updates

    @property
    def queries_answered(self) -> int:
        """How many queries have been answered so far."""
        return len(self._answers)

    @property
    def updates_performed(self) -> int:
        """How many MW updates (``top`` rounds) have occurred."""
        return self._updates

    @property
    def halted(self) -> bool:
        """Whether the update budget ``T`` is exhausted (Figure 3 halts)."""
        return self._sparse_vector.halted

    @property
    def svt_hard_queries(self) -> int:
        """Sparse-vector above-threshold ("hard") answers so far — each
        one consumed an update slot. Published as the
        ``mechanism.svt_hard_queries`` telemetry gauge."""
        return self._sparse_vector.above_count

    @property
    def svt_queries_asked(self) -> int:
        """Queries the sparse-vector interaction has judged so far."""
        return self._sparse_vector.queries_asked

    @property
    def history(self) -> list[dict]:
        """Per-update diagnostics (update index, loss name, error query)."""
        return list(self._history)

    def privacy_guarantee(self) -> PrivacyParameters:
        """Theorem 3.9's total: SV ``(eps/2, delta/2)`` + T-fold oracle calls.

        Computed from the *actual* schedule: the sparse vector's budget plus
        the advanced composition of up to ``T`` oracle calls at
        ``(eps0, delta0)``. The first-order term of the composition is
        exactly ``eps/2``; the second-order term ``2 T eps0^2 =
        eps^2 / (4 log(4/delta))`` makes the reported total exceed ``eps``
        by a factor ``1 + O(eps / log(1/delta))`` — the same constant-level
        slack present in the paper's own invocation of Theorem 3.10.
        """
        oracle_part = advanced_composition(
            self.config.oracle_epsilon, self.config.oracle_delta,
            self.config.max_updates, self.config.delta / 4.0,
        )
        return PrivacyParameters(
            epsilon=self.config.sv_epsilon + oracle_part.epsilon,
            delta=self.config.sv_delta + oracle_part.delta,
        )

    # -- answering ---------------------------------------------------------------

    def answer(self, loss: LossFunction) -> PMWAnswer:
        """Answer one CM query (one iteration of Figure 3's loop)."""
        if self.halted:
            raise MechanismHalted(
                f"PMW exhausted its update budget T={self.config.max_updates}; "
                f"remaining queries can be served from .hypothesis via "
                f"answer_from_hypothesis()"
            )
        self._check_loss(loss)
        # Pre-flight the armed budget before any private work: if this
        # round came back `top` we could not afford the oracle call, and
        # raising after the fact would burn an update slot per retry and
        # corrupt the round. Refusing here also skips the two inner
        # minimizations a doomed round would otherwise pay for
        # (hypothesis answers remain available).
        self.accountant.preflight(self.config.oracle_epsilon,
                                  self.config.oracle_delta,
                                  label=f"oracle:{loss.name}")
        index = len(self._answers)

        # Custom losses with unfingerprintable state (e.g. stored
        # callables) still answer fine — they fall back to the
        # identity-keyed cache, like the pre-fingerprint behaviour.
        with trace.span("mechanism.fingerprint"):
            key = self._loss_key(loss)
        breakdown = self._round_breakdown(loss, key)
        with trace.span("mechanism.svt"):
            sv_answer = self._sparse_vector.process(breakdown.error)

        if not sv_answer.above:
            answer = PMWAnswer(theta=breakdown.hypothesis_minimizer,
                               from_update=False, query_index=index)
            self._answers.append(answer)
            return answer

        with trace.span("mechanism.mw_update", loss=loss.name):
            theta_oracle = self._oracle.answer(loss, self._dataset,
                                               rng=self._oracle_rng)
            theta_oracle = loss.domain.project(
                np.asarray(theta_oracle, dtype=float))
            self.accountant.spend(self.config.oracle_epsilon,
                                  self.config.oracle_delta,
                                  label=f"oracle:{loss.name}")
            certificate = dual_certificate(
                loss, self.hypothesis, theta_oracle,
                theta_hat=breakdown.hypothesis_minimizer,
                solver_steps=self.solver_steps,
            )
            if self._core is not None:
                # Bumps the version: every record is now a warm start.
                mw_step_inplace(self._core, certificate,
                                self.config.eta, self.config.scale)
            else:
                self._hypothesis = mw_step(self._hypothesis, certificate,
                                           self.config.eta,
                                           self.config.scale)
        update_index = self._updates
        self._updates += 1
        self._history.append({
            "update_index": update_index,
            "query_index": index,
            "loss": loss.name,
            "error_query": breakdown.error,
            "certificate_hypothesis_inner": certificate.hypothesis_inner,
        })
        answer = PMWAnswer(theta=theta_oracle, from_update=True,
                           query_index=index, update_index=update_index)
        self._answers.append(answer)
        return answer

    def prewarm(self, losses) -> int:
        """Batch-populate the records' data-side minima via the engine.

        ``min_theta l(theta; D)`` depends only on ``(loss, D)``, so a whole
        batch of pending queries can pay for it up front in one vectorized
        pass (:func:`repro.engine.batch_data_minima`): closed-form families
        collapse into shared moment computations instead of one
        universe-sized solve per query. Minima another session over the
        same dataset already solved come from the shared memo instead.
        Purely an evaluation-order change — no privacy event happens
        here, the cached values are exactly what :meth:`answer` would have
        computed lazily, and unfingerprintable or non-loss queries are
        skipped (they are solved in their own round).

        The lane is also registered for hypothesis-side batching: a
        hypothesis-side miss for a lane member batch-solves the lane
        at the current hypothesis version through the same engine pass
        (see :meth:`_batch_lane`) — that is how a coalesced
        gateway batch converts queue pressure into the batched-kernel
        fast path end to end.

        Returns the number of data-side minima added.
        """
        from repro.engine import batch_data_minima, closed_form_minima

        self._lane_minima = OrderedDict()
        if self._core is not None:
            candidates = [q for q in losses if isinstance(q, LossFunction)]
            closed = {id(loss) for loss in closed_form_minima(
                candidates, universe=self._data_histogram.universe)}
            for loss in candidates:
                if id(loss) not in closed and not lockstep_eligible(loss):
                    continue
                key = self._loss_key(loss)
                if key is not None and len(self._lane_minima) < \
                        self.DATA_MINIMA_LIMIT:
                    self._lane_minima.setdefault(
                        key, (loss, id(loss) in closed))

        missing: list[tuple[str, LossFunction]] = []
        seen: set[str] = set()
        cached_needed = 0
        for loss in losses:
            if not isinstance(loss, LossFunction):
                continue
            try:
                key = loss.fingerprint()
            except LossSpecificationError:
                continue
            if key in seen:
                continue
            seen.add(key)
            record = self._records.get(key)
            if record is not None and record.data is not None:
                # Mark the record hot: this stream is about to use it, and
                # the eviction below must drop genuinely cold keys, not
                # ones the incoming lane still needs.
                self._records.move_to_end(key)
                cached_needed += 1
                continue
            missing.append((key, loss))
        # Never compute more than the table can hold alongside the lane's
        # already-held minima: anything past the LRU bound would be
        # evicted before the stream reaches it and solved again lazily —
        # keeping the stream prefix means the first queries to run are
        # exactly the ones warmed.
        missing = missing[:max(0, self.DATA_MINIMA_LIMIT - cached_needed)]
        if not missing:
            return 0
        results = {key: self._shared.get(self._data_memo_key(key))
                   for key, _ in missing}
        fresh = [(key, loss) for key, loss in missing if results[key] is None]
        if fresh:
            solved = batch_data_minima([loss for _, loss in fresh],
                                       self._data_histogram,
                                       solver_steps=self.solver_steps)
            for (key, _), result in zip(fresh, solved):
                results[key] = self._shared.put(self._data_memo_key(key),
                                                result)
        for key, _ in missing:
            # Stored in lane order exactly as answer() stores its lazy
            # computation, whether solved here or shared.
            self._record(key).data = _data_entry(results[key])
        return len(missing)

    def answer_all(self, losses, *, on_halt: str = "raise",
                   prewarm: bool = True) -> list[PMWAnswer]:
        """Answer a sequence of CM queries.

        ``on_halt`` controls behaviour if the update budget — or an armed
        accountant budget — runs out mid-stream: ``"raise"`` propagates
        :class:`MechanismHalted` / :class:`PrivacyBudgetExhausted`
        (Figure 3's behaviour); ``"hypothesis"`` serves the remaining
        queries from the final public hypothesis (pure post-processing,
        still ``(eps, delta)``-DP, but without the per-query accuracy
        certificate).

        ``prewarm`` (default on) runs the batch through
        :meth:`prewarm` first, so data-side minimizations are computed in
        one vectorized engine pass instead of lazily per round.
        """
        if on_halt not in ("raise", "hypothesis"):
            raise ValidationError(
                f"on_halt must be 'raise' or 'hypothesis', got {on_halt!r}"
            )
        losses = list(losses)
        # Pre-warming is dead work when no paid round can run: a halted
        # mechanism serves everything from the hypothesis (or raises
        # immediately), and an exhausted armed budget makes every round
        # refuse at preflight before reading the data-side minima.
        if prewarm and not self.halted:
            try:
                self.accountant.preflight(self.config.oracle_epsilon,
                                          self.config.oracle_delta,
                                          label="prewarm")
            except PrivacyBudgetExhausted:
                pass
            else:
                self.prewarm(losses)
        answers = []
        for loss in losses:
            if self.halted:
                if on_halt == "raise":
                    raise MechanismHalted(
                        "update budget exhausted before the query stream ended"
                    )
                answers.append(self.answer_from_hypothesis(loss))
                continue
            try:
                answers.append(self.answer(loss))
            except PrivacyBudgetExhausted:
                if on_halt == "raise":
                    raise
                answers.append(self.answer_from_hypothesis(loss))
        return answers

    def answer_from_hypothesis(self, loss: LossFunction) -> PMWAnswer:
        """Answer from the public hypothesis only (no privacy cost).

        Shares the record table with :meth:`answer`: a query whose
        hypothesis side was already solved at the current version replays
        its minimizer without touching the solver.
        """
        self._check_loss(loss)
        index = len(self._answers)
        theta = self._hypothesis_theta(loss, self._loss_key(loss))
        answer = PMWAnswer(theta=theta, from_update=False, query_index=index)
        self._answers.append(answer)
        return answer

    def synthetic_dataset(self, n: int, rng=None) -> Dataset:
        """Sample a synthetic dataset from the final hypothesis.

        Section 4.3 notes the mechanism "can be modified to output a
        synthetic dataset (namely, the final histogram)". Sampling from
        the public hypothesis is post-processing, hence free of privacy
        cost.
        """
        indices = self.hypothesis.sample_indices(n, rng=rng)
        return Dataset(self._dataset.universe, indices)

    # -- snapshot / restore ------------------------------------------------------

    #: Written format. v2 stores the hypothesis as the raw log-domain
    #: core state (``hypothesis_core``) for versioned mechanisms —
    #: ``hypothesis_weights`` is ``None`` there — plus warm-start and
    #: round-cache records. v1 (pre-versioned-core) snapshots are still
    #: accepted on read and restore onto the legacy immutable path.
    #: v3 run-length encodes the accountant's spend records
    #: (``to_grouped_records``: entries may carry a ``count``); the bump
    #: exists because a v2 reader would ignore ``count`` and silently
    #: under-count spent budget — it must refuse loudly instead. v1/v2
    #: snapshots (plain records) are still accepted on read.
    SNAPSHOT_FORMAT = "repro.pmw_cm/v3"
    ACCEPTED_SNAPSHOT_FORMATS = ("repro.pmw_cm/v1", "repro.pmw_cm/v2",
                                 "repro.pmw_cm/v3")

    def snapshot(self) -> dict:
        """Full mechanism state as a JSON-serializable dict.

        Contains everything *except* the private dataset and the oracle:
        the schedule targets, the public hypothesis, answers, history, the
        sparse-vector interaction state, rng states, the accountant's spend
        journal, and the whole record table. Restoring via :meth:`restore`
        with the same dataset and oracle continues the run bit-for-bit.
        Snapshots include internal noise state and data-side minima, so
        they are server-side artifacts, not public releases. The table
        is written as ``data_minima``, ``warm_starts`` (every hypothesis
        minimizer) and ``round_cache`` (replays at the current version).
        """
        config = self.config
        records = self._records.items()
        return {
            "format": self.SNAPSHOT_FORMAT,
            "config": {
                "alpha": config.alpha, "beta": config.beta,
                "epsilon": config.epsilon, "delta": config.delta,
                "scale": config.scale, "universe_size": config.universe_size,
                "schedule": config.schedule,
                "max_updates": config.max_updates,
            },
            "solver_steps": self.solver_steps,
            "noise_multiplier": self._sparse_vector.noise_multiplier,
            "versioned_core": self.versioned_core,
            "warm_start": self.warm_start,
            # The backend is arithmetic, not state: hypothesis payloads
            # below are backend-independent float64, so a restore may
            # override it freely (or inherit it from here).
            "backend": self.backend_name,
            # Exactly one hypothesis representation is stored: the raw
            # log-domain core state (versioned path — normalized weights
            # would both double the payload and lose the deferred
            # normalization state), or the normalized weights (legacy).
            "hypothesis_weights": (self._hypothesis.weights.tolist()
                                   if self._core is None else None),
            "hypothesis_core": (self._core.state_dict()
                                if self._core is not None else None),
            "warm_starts": {
                key: {"version": record.version,
                      "theta": record.theta.tolist()}
                for key, record in records if record.theta is not None
            },
            "round_cache": [
                {
                    "fingerprint": key,
                    "version": record.version,
                    "error": record.breakdown().error,
                    "hypothesis_minimizer": record.theta.tolist(),
                    "hypothesis_loss_on_data": record.loss_on_data,
                    "optimal_loss_on_data": record.data.value,
                    "data_minimizer": record.data.theta.tolist(),
                }
                for key, record in records
                if record.loss_on_data is not None
                and record.version == self.hypothesis_version
            ],
            "updates": self._updates,
            "history": [dict(entry) for entry in self._history],
            "answers": [
                {
                    "theta": answer.theta.tolist(),
                    "from_update": answer.from_update,
                    "query_index": answer.query_index,
                    "update_index": answer.update_index,
                }
                for answer in self._answers
            ],
            "sparse_vector": self._sparse_vector.state_dict(),
            "oracle_rng_state": self._oracle_rng.bit_generator.state,
            "accountant": {
                "records": self.accountant.to_grouped_records(),
                "epsilon_budget": self.accountant.epsilon_budget,
                "delta_budget": self.accountant.delta_budget,
            },
            "data_minima": {
                key: {
                    "theta": record.data.theta.tolist(),
                    "value": record.data.value,
                    "exact": record.data.exact,
                }
                for key, record in records if record.data is not None
            },
        }

    @classmethod
    def restore(cls, snapshot: dict, dataset: Dataset,
                oracle: SingleQueryOracle, *, rng=None,
                backend: str | ArrayBackend | None = None,
                ) -> "PrivateMWConvex":
        """Rebuild a mechanism from :meth:`snapshot` output.

        The private dataset and the oracle are supplied by the caller (they
        are never serialized); the snapshot must have been taken against a
        dataset over the same universe. ``backend`` overrides the
        snapshotted backend (hypothesis payloads are backend-independent
        ``float64``, so cross-backend restores are exact); ``None``
        inherits the snapshot's backend, defaulting to NumPy for
        pre-backend snapshots. The shard-layout keys of snapshots
        written while the hypothesis could be sharded only chose a
        memory layout, never the stored weights, so they are ignored.
        The record table is rebuilt from all three sections, so minima
        released before the snapshot replay; its LRU order is rebuilt
        section by section (``warm_starts`` last).
        """
        if snapshot.get("format") not in cls.ACCEPTED_SNAPSHOT_FORMATS:
            raise ValidationError(
                f"unrecognized snapshot format {snapshot.get('format')!r}; "
                f"expected one of {cls.ACCEPTED_SNAPSHOT_FORMATS}"
            )
        config = snapshot["config"]
        if dataset.universe.size != config["universe_size"]:
            raise ValidationError(
                f"snapshot was taken over a universe of size "
                f"{config['universe_size']}, dataset has "
                f"{dataset.universe.size}"
            )
        mechanism = cls(
            dataset, oracle,
            scale=config["scale"], alpha=config["alpha"],
            beta=config["beta"], epsilon=config["epsilon"],
            delta=config["delta"], schedule=config["schedule"],
            max_updates=config["max_updates"],
            solver_steps=snapshot["solver_steps"],
            noise_multiplier=snapshot["noise_multiplier"],
            # Pre-versioned-core snapshots carry only normalized weights;
            # restoring them onto the legacy immutable path keeps the
            # resumed run faithful to the snapshotted one.
            versioned_core=snapshot.get("versioned_core", False),
            warm_start=snapshot.get("warm_start", True),
            backend=(backend if backend is not None
                     else snapshot.get("backend")),
            rng=rng,
        )
        if mechanism._core is not None:
            # The raw log-domain accumulator (pre-normalization state and
            # version counter) restores bitwise, so a resumed run applies
            # updates to exactly the floats the original would have.
            mechanism._core = LogHistogram.from_state(
                dataset.universe, snapshot["hypothesis_core"],
                backend=mechanism._backend)
        else:
            mechanism._hypothesis = Histogram(
                dataset.universe,
                np.asarray(snapshot["hypothesis_weights"], dtype=float),
                backend=mechanism._backend,
            )
        for key, entry in snapshot["data_minima"].items():
            mechanism._record(key).data = MinimizeResult(
                np.asarray(entry["theta"], dtype=float),
                float(entry["value"]), bool(entry["exact"]))
        for entry in snapshot.get("round_cache", []):
            record = mechanism._record(entry["fingerprint"])
            record.solved(int(entry["version"]), np.asarray(
                entry["hypothesis_minimizer"], dtype=float))
            record.loss_on_data = float(entry["hypothesis_loss_on_data"])
            if record.data is None:
                record.data = MinimizeResult(
                    np.asarray(entry["data_minimizer"], dtype=float),
                    float(entry["optimal_loss_on_data"]), False)
        for key, entry in snapshot.get("warm_starts", {}).items():
            record = mechanism._record(key)
            if record.version != int(entry["version"]):
                record.solved(int(entry["version"]),
                              np.asarray(entry["theta"], dtype=float))
        mechanism._updates = int(snapshot["updates"])
        mechanism._history = [dict(entry) for entry in snapshot["history"]]
        mechanism._answers = [
            PMWAnswer(
                theta=np.asarray(record["theta"], dtype=float),
                from_update=bool(record["from_update"]),
                query_index=int(record["query_index"]),
                update_index=record["update_index"],
            )
            for record in snapshot["answers"]
        ]
        mechanism._sparse_vector.load_state_dict(snapshot["sparse_vector"])
        mechanism._oracle_rng.bit_generator.state = snapshot["oracle_rng_state"]
        # The fresh __init__ registered the sparse-vector spend; the journal
        # already contains it, so replace rather than append.
        mechanism.accountant = restore_accountant(snapshot["accountant"])
        return mechanism

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _loss_key(loss: LossFunction) -> str | None:
        """Fingerprint, or ``None`` when the loss cannot be fingerprinted."""
        try:
            return loss.fingerprint()
        except LossSpecificationError:
            return None

    def _data_memo_key(self, key: str) -> tuple:
        """Shared-memo key of a data-side minimum (see
        :mod:`repro.engine.memo`)."""
        return ("data", self.solver_steps, key)

    def _data_minimum(self, loss: LossFunction,
                      key: str | None) -> MinimizeResult:
        """``min_theta l(theta; D)`` on a per-session cache miss: from the
        shared memo, else solved through the same engine call
        :meth:`prewarm` makes, so the value never depends on whether the
        query arrived in a prewarmed lane or alone."""
        from repro.engine import batch_data_minima

        memo_key = self._data_memo_key(key) if key is not None else None
        if memo_key is not None:
            hit = self._shared.get(memo_key)
            if hit is not None:
                return hit
        result = batch_data_minima([loss], self._data_histogram,
                                   solver_steps=self.solver_steps)[0]
        if memo_key is not None:
            result = self._shared.put(memo_key, result)
        return result

    def _record(self, key: str) -> _MemoRecord:
        """The record for ``key``, marked most recently used; made on
        first use, evicting the least recently used past
        :attr:`DATA_MINIMA_LIMIT`."""
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = _MemoRecord()
            while len(self._records) > self.DATA_MINIMA_LIMIT:
                self._records.popitem(last=False)
        else:
            self._records.move_to_end(key)
        return record

    def _hypothesis_theta(self, loss: LossFunction,
                          key: str | None) -> np.ndarray:
        """``argmin_theta l(theta; Dhat)``, warm-started when the query was
        seen.

        Warm starting only changes the inner solver's trajectory — the
        returned minimizer is still a valid (projected, best-seen)
        solution on the *current* hypothesis. The previous minimizer is
        a near-solution because one MW step moves the hypothesis by at
        most ``O(eta)`` in total variation — an argument that decays
        with staleness, so the reduced step budget applies only to
        starts at most :attr:`WARM_STALENESS_LIMIT` versions old.

        A record solved at the current version is the answer, so repeated
        solves at an unchanged hypothesis — including post-halt
        hypothesis-only streams — cost a dictionary lookup.
        """
        record = None
        if self._core is not None and key is not None:
            version = self._core.version
            record = self._record(key)
            lane = self._lane_minima.get(key)
            if (record.version != version and lane is not None
                    and (lane[1] or self.halted)):
                # A batchable lane member missed at this version: solve
                # the *remaining* lane's hypothesis minima in one engine
                # pass (this record among them).
                self._batch_lane()
            # Served entries leave the lane, so a mid-lane MW update
            # re-batches only the queries still ahead in the stream —
            # never the already-served prefix (whose re-solves would be
            # pure waste: O(lane^2) on an update-heavy stream).
            self._lane_minima.pop(key, None)
            if record.version == version:
                return record.theta
        start, steps = self._warm_start(record)
        # A cold solve on the untouched uniform prior is the same for
        # every session over this dataset with this backend.
        prior_key = (("prior", self.backend_name, steps, key)
                     if record is not None and start is None
                     and self._core.version == 0 else None)
        result = (self._shared.get(prior_key) if prior_key is not None
                  else None)
        if result is None:
            result = minimize_loss(loss, self.hypothesis, steps=steps,
                                   start=start)
            if prior_key is not None:
                result = self._shared.put(prior_key, result)
        if record is not None:
            record.solved(self._core.version, result.theta)
        return result.theta

    def _warm_start(self, record: _MemoRecord | None
                    ) -> tuple[np.ndarray | None, int]:
        """``(start, steps)`` for a hypothesis-side solve of ``record``."""
        start, steps = None, self.solver_steps
        if self.warm_start and record is not None \
                and record.theta is not None:
            start = record.theta
            staleness = self._core.version - record.version
            if staleness <= self.WARM_STALENESS_LIMIT:
                steps = self.warm_solver_steps
        return start, steps

    def _batch_lane(self) -> int:
        """Batch-solve the registered lane's hypothesis minima at the
        current version (one engine pass; see :meth:`prewarm`).

        Closed-form members are always batched. Iterative members join
        only once the mechanism has halted, when the hypothesis can no
        longer change and every batched solve will be used; each keeps
        the warm start and step budget its scalar solve would have had.
        Pure post-processing of the public hypothesis — no privacy
        event, and each stored result is what the scalar dispatch would
        produce up to floating-point reassociation. An MW update bumps
        the version and the *next* lane miss re-batches the remaining
        entries, so an update-heavy prefix degrades gracefully toward
        the scalar path instead of wasting whole-lane solves.

        Returns the number of entries batch-solved (0 when the lane has
        fewer than two pending entries — the scalar path handles
        singletons).
        """
        from repro.engine import batch_data_minima

        version = self._core.version
        halted = self.halted
        pending = [(key, loss)
                   for key, (loss, closed) in self._lane_minima.items()
                   if (closed or halted)
                   and self._records.get(key, _MemoRecord()).version != version]
        if len(pending) < 2:
            return 0
        records = [self._record(key) for key, _ in pending]
        warm = [self._warm_start(record) for record in records]
        results = batch_data_minima([loss for _, loss in pending],
                                    self.hypothesis,
                                    solver_steps=[steps for _, steps in warm],
                                    starts=[start for start, _ in warm])
        for record, result in zip(records, results):
            record.solved(version, result.theta)
        return len(pending)

    def _round_breakdown(self, loss: LossFunction,
                         key: str | None) -> DatabaseErrorBreakdown:
        """One round's ``database_error``, memoized and warm-started.

        With the versioned core, a record that holds ``l(theta; D)`` at
        the current version replays the round's breakdown — no solver
        call, no loss-on-data pass — from the floats the first
        evaluation stored, so replaying is exactly what recomputing
        would produce.
        """
        with trace.span("mechanism.cache_probe"):
            record = self._record(key) if key is not None else None
            if (record is not None and record.loss_on_data is not None
                    and record.version == self._core.version):
                return record.breakdown()
            data = (record.data if record is not None
                    else self._data_minima_by_identity.get(loss))
        with trace.span("mechanism.solve", loss=loss.name):
            theta = self._hypothesis_theta(loss, key)
            if data is None:
                data = _data_entry(self._data_minimum(loss, key))
            loss_on_data = float(loss.loss_on(theta, self._data_histogram))
        if record is None:
            self._data_minima_by_identity[loss] = data
        else:
            record.data = data
            if self._core is not None:
                record.loss_on_data = loss_on_data
        return DatabaseErrorBreakdown.from_parts(data, theta, loss_on_data)

    def _check_loss(self, loss: LossFunction) -> None:
        if loss.domain.dim < 1:
            raise LossSpecificationError(f"{loss.name}: invalid domain")
        try:
            bound = loss.scale_bound()
        except LossSpecificationError:
            return  # no declared bound: trust the caller's family scale
        if bound > self.config.scale * (1.0 + 1e-6):
            raise LossSpecificationError(
                f"{loss.name}: scale bound {bound:.6g} exceeds the family "
                f"scale S={self.config.scale:.6g} this mechanism was "
                f"calibrated for; privacy calibration would be invalid"
            )


def _data_entry(result: MinimizeResult) -> MinimizeResult:
    """A data-side minimum as a record holds (and snapshots) it."""
    return MinimizeResult(result.theta, result.value, exact=False)
