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
from repro.core.accuracy import DatabaseErrorBreakdown, database_error
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


class PrivateMWConvex:
    """The Figure 3 mechanism.

    Class attributes
    ----------------
    DATA_MINIMA_LIMIT:
        LRU bound on the per-mechanism cache of data-side minimizations
        (one entry per distinct loss fingerprint), and on the minima all
        mechanisms over one dataset share (:mod:`repro.engine.memo`).
        Eviction only costs a recomputation; correctness is unaffected.
    ROUND_CACHE_LIMIT:
        LRU bound on the per-round breakdown cache, keyed by
        ``(loss fingerprint, hypothesis version)``. A repeated query at
        an unchanged hypothesis replays the whole round evaluation —
        solver, loss-on-data pass, error query — from this cache. The
        cache is cleared on every MW update (all entries are for a stale
        version by construction).

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
        unchanged version replay their full round evaluation from cache,
        and hypothesis-side solves warm-start from the previous round.
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
    ROUND_CACHE_LIMIT = 256
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
        # Whole-round evaluations keyed by (loss fingerprint, hypothesis
        # version): a no-update round re-asking a known query skips the
        # hypothesis solve, the loss-on-data pass, and the error query
        # entirely. Cleared on every update (the version moved).
        self._round_cache: OrderedDict[tuple[str, int],
                                       DatabaseErrorBreakdown] = OrderedDict()
        # Hypothesis-side solves alone, same keying: also hit by
        # hypothesis-only answers (post-halt streams), which never build
        # a full round breakdown.
        self._hypothesis_minima: OrderedDict[tuple[str, int],
                                             MinimizeResult] = OrderedDict()
        # Previous hypothesis-side minimizer per fingerprint, stored with
        # the version it was solved at; used to warm-start later solves
        # (survives updates — that is the point: the hypothesis moves
        # little per MW step). The reduced step budget applies only when
        # the start is at most WARM_STALENESS_LIMIT versions old;
        # staler starts still seed the solver but keep the full budget.
        self._warm_starts: OrderedDict[str,
                                       tuple[int, np.ndarray]] = OrderedDict()
        # The current serving lane's batchable losses, keyed by
        # fingerprint (registered by prewarm, replaced per lane), each
        # with whether its minimum has a shared closed form. On a
        # hypothesis-minima miss for a closed-form member, the lane's
        # closed-form solves at the current version collapse into one
        # shared-moment engine pass. Iterative (lockstep) members batch
        # only once the mechanism has halted: before that, an MW update
        # would discard a batch solved ahead of its rounds.
        self._lane_minima: OrderedDict[str, tuple[LossFunction, bool]] = \
            OrderedDict()
        self._answers: list[PMWAnswer] = []
        self._updates = 0
        self._history: list[dict] = []
        # min_theta l(theta; D) depends only on (loss, D): cache it per
        # loss *fingerprint* so repeated queries (cycling/adaptive analysts,
        # or a serving layer rebuilding equal loss objects) pay one
        # data-side minimization, not one per round. Fingerprint keys also
        # survive snapshot/restore, unlike object identity; the LRU bound
        # keeps long-lived serving sessions from growing without limit.
        self._data_minima: OrderedDict[str, MinimizeResult] = OrderedDict()
        # Fallback for losses whose state cannot be fingerprinted (e.g.
        # stored callables): identity-keyed, GC-bound, never serialized.
        self._data_minima_by_identity = weakref.WeakKeyDictionary()
        # Minima every mechanism over this dataset object shares (see
        # repro.engine.memo): data-side solves, and cold solves on the
        # uniform prior. Hits are copied into the per-session tables
        # above, so snapshots and warm starts read exactly as if this
        # session had solved them itself.
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
        cached = (self._data_minima.get(key) if key is not None
                  else self._data_minima_by_identity.get(loss))
        breakdown = self._round_breakdown(loss, key, cached)
        if cached is not None:
            if key is not None:
                self._data_minima.move_to_end(key)
        elif key is not None:
            self._data_minima[key] = MinimizeResult(
                breakdown.data_minimizer, breakdown.optimal_loss_on_data,
                exact=False,
            )
            while len(self._data_minima) > self.DATA_MINIMA_LIMIT:
                self._data_minima.popitem(last=False)
        else:
            self._data_minima_by_identity[loss] = MinimizeResult(
                breakdown.data_minimizer, breakdown.optimal_loss_on_data,
                exact=False,
            )
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
                mw_step_inplace(self._core, certificate,
                                self.config.eta, self.config.scale)
                # Every cached round evaluation is for the old version now.
                self._round_cache.clear()
                self._hypothesis_minima.clear()
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
        """Batch-populate the data-side minimization cache via the engine.

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
        hypothesis-minima miss for a lane member batch-solves the lane
        at the current hypothesis version through the same engine pass
        (see :meth:`_batch_hypothesis_minima`) — that is how a coalesced
        gateway batch converts queue pressure into the batched-kernel
        fast path end to end.

        Returns the number of cache entries added.
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
                        self.ROUND_CACHE_LIMIT:
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
            if key in self._data_minima:
                # Mark the entry hot: this stream is about to use it, and
                # the eviction below must drop genuinely cold keys, not
                # ones the incoming lane still needs.
                self._data_minima.move_to_end(key)
                cached_needed += 1
                continue
            missing.append((key, loss))
        # Never compute more than the cache can hold alongside the lane's
        # already-cached entries: anything past the LRU bound would be
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
            # computation (exact=False: cache entries round-trip through
            # snapshots, which do not persist the exactness of the
            # original dispatch), whether solved here or shared.
            result = results[key]
            self._data_minima[key] = MinimizeResult(
                result.theta, result.value, exact=False,
            )
        while len(self._data_minima) > self.DATA_MINIMA_LIMIT:
            self._data_minima.popitem(last=False)
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

        Shares the round cache and warm starts with :meth:`answer`: a
        query whose round was already evaluated at the current version
        replays its minimizer without touching the solver.
        """
        self._check_loss(loss)
        index = len(self._answers)
        key = self._loss_key(loss)
        hit = self._round_cache_get(key)
        if hit is not None:
            theta = hit.hypothesis_minimizer
        else:
            theta = self._minimize_on_hypothesis(loss, key).theta
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
        journal, and the data-side minimization cache. Restoring via
        :meth:`restore` with the same dataset and oracle continues the run
        bit-for-bit. Snapshots include internal noise state and data-side
        minima, so they are server-side artifacts, not public releases.
        """
        config = self.config
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
                key: {"version": version, "theta": theta.tolist()}
                for key, (version, theta) in self._warm_starts.items()
            },
            "round_cache": [
                {
                    "fingerprint": fingerprint,
                    "version": version,
                    "error": breakdown.error,
                    "hypothesis_minimizer":
                        breakdown.hypothesis_minimizer.tolist(),
                    "hypothesis_loss_on_data":
                        breakdown.hypothesis_loss_on_data,
                    "optimal_loss_on_data": breakdown.optimal_loss_on_data,
                    "data_minimizer": breakdown.data_minimizer.tolist(),
                }
                for (fingerprint, version), breakdown
                in self._round_cache.items()
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
                    "theta": result.theta.tolist(),
                    "value": result.value,
                    "exact": result.exact,
                }
                for key, result in self._data_minima.items()
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
        mechanism._warm_starts = OrderedDict(
            (key, (int(record["version"]),
                   np.asarray(record["theta"], dtype=float)))
            for key, record in snapshot.get("warm_starts", {}).items()
        )
        mechanism._round_cache = OrderedDict(
            ((record["fingerprint"], int(record["version"])),
             DatabaseErrorBreakdown(
                 error=float(record["error"]),
                 hypothesis_minimizer=np.asarray(
                     record["hypothesis_minimizer"], dtype=float),
                 hypothesis_loss_on_data=float(
                     record["hypothesis_loss_on_data"]),
                 optimal_loss_on_data=float(record["optimal_loss_on_data"]),
                 data_minimizer=np.asarray(record["data_minimizer"],
                                           dtype=float),
             ))
            for record in snapshot.get("round_cache", [])
        )
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
        mechanism._data_minima = OrderedDict(
            (key, MinimizeResult(
                np.asarray(record["theta"], dtype=float),
                float(record["value"]), bool(record["exact"]),
            ))
            for key, record in snapshot["data_minima"].items()
        )
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

    def _round_cache_get(self, key: str | None) -> DatabaseErrorBreakdown | None:
        """Current-version round cache lookup (versioned core only)."""
        if self._core is None or key is None:
            return None
        round_key = (key, self._core.version)
        hit = self._round_cache.get(round_key)
        if hit is not None:
            self._round_cache.move_to_end(round_key)
        return hit

    def _minimize_on_hypothesis(self, loss: LossFunction,
                                key: str | None) -> MinimizeResult:
        """Hypothesis-side solve, warm-started when the query was seen.

        Warm starting only changes the inner solver's trajectory — the
        returned minimizer is still a valid (projected, best-seen)
        solution on the *current* hypothesis. The previous minimizer is
        a near-solution because one MW step moves the hypothesis by at
        most ``O(eta)`` in total variation — an argument that decays
        with staleness, so the reduced step budget applies only to
        starts at most :attr:`WARM_STALENESS_LIMIT` versions old.

        Results are cached per ``(fingerprint, version)``, so repeated
        solves at an unchanged hypothesis — including post-halt
        hypothesis-only streams — cost a dictionary lookup.
        """
        minima_key = None
        if self._core is not None and key is not None:
            minima_key = (key, self._core.version)
            hit = self._hypothesis_minima.get(minima_key)
            lane = self._lane_minima.get(key)
            if hit is None and lane is not None and (lane[1]
                                                     or self.halted):
                # A batchable lane member missed at this version: solve
                # the *remaining* lane's hypothesis minima in one engine
                # pass, then re-read.
                self._batch_hypothesis_minima()
                hit = self._hypothesis_minima.get(minima_key)
            # Served entries leave the lane, so a mid-lane MW update
            # re-batches only the queries still ahead in the stream —
            # never the already-served prefix (whose re-solves would be
            # pure waste: O(lane^2) on an update-heavy stream).
            self._lane_minima.pop(key, None)
            if hit is not None:
                self._hypothesis_minima.move_to_end(minima_key)
                return hit
        start, steps = self._warm_start(key)
        # A cold solve on the untouched uniform prior is the same for
        # every session over this dataset with this backend.
        prior_key = (("prior", self.backend_name, steps, key)
                     if minima_key is not None and start is None
                     and self._core.version == 0 else None)
        result = (self._shared.get(prior_key) if prior_key is not None
                  else None)
        if result is None:
            result = minimize_loss(loss, self.hypothesis, steps=steps,
                                   start=start)
            if prior_key is not None:
                result = self._shared.put(prior_key, result)
        if minima_key is not None:
            self._hypothesis_minima[minima_key] = result
            while len(self._hypothesis_minima) > self.ROUND_CACHE_LIMIT:
                self._hypothesis_minima.popitem(last=False)
        if self.warm_start and key is not None:
            self._warm_starts[key] = (self._core.version, result.theta)
            self._warm_starts.move_to_end(key)
            while len(self._warm_starts) > self.DATA_MINIMA_LIMIT:
                self._warm_starts.popitem(last=False)
        return result

    def _warm_start(self, key: str | None) -> tuple[np.ndarray | None, int]:
        """``(start, steps)`` for a hypothesis-side solve of ``key``."""
        start, steps = None, self.solver_steps
        if self.warm_start and key is not None:
            warm = self._warm_starts.get(key)
            if warm is not None:
                warm_version, start = warm
                staleness = self._core.version - warm_version
                if staleness <= self.WARM_STALENESS_LIMIT:
                    steps = self.warm_solver_steps
        return start, steps

    def _batch_hypothesis_minima(self) -> int:
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
        pending = [(key, loss) for key, (loss, closed)
                   in self._lane_minima.items()
                   if (closed or halted)
                   and (key, version) not in self._hypothesis_minima]
        if len(pending) < 2:
            return 0
        warm = [self._warm_start(key) for key, _ in pending]
        results = batch_data_minima([loss for _, loss in pending],
                                    self.hypothesis,
                                    solver_steps=[steps for _, steps in warm],
                                    starts=[start for start, _ in warm])
        for (key, _), result in zip(pending, results):
            self._hypothesis_minima[(key, version)] = result
            if self.warm_start:
                self._warm_starts[key] = (version, result.theta)
                self._warm_starts.move_to_end(key)
        while len(self._hypothesis_minima) > self.ROUND_CACHE_LIMIT:
            self._hypothesis_minima.popitem(last=False)
        while len(self._warm_starts) > self.DATA_MINIMA_LIMIT:
            self._warm_starts.popitem(last=False)
        return len(pending)

    def _round_breakdown(self, loss: LossFunction, key: str | None,
                         data_result) -> DatabaseErrorBreakdown:
        """One round's ``database_error``, version-cached and warm-started.

        With the versioned core, a repeated ``(fingerprint, version)``
        pair replays the cached breakdown — no solver call, no
        loss-on-data pass, no error-query recomputation. The cached
        quantities are deterministic functions of ``(loss, data,
        hypothesis version)``, so replaying them is exactly what
        recomputing would produce.
        """
        with trace.span("mechanism.cache_probe"):
            hit = self._round_cache_get(key)
        if hit is not None:
            return hit
        with trace.span("mechanism.solve", loss=loss.name):
            hypothesis_result = self._minimize_on_hypothesis(loss, key)
            if data_result is None:
                data_result = self._data_minimum(loss, key)
            breakdown = database_error(loss, self._data_histogram,
                                       self.hypothesis,
                                       solver_steps=self.solver_steps,
                                       data_result=data_result,
                                       hypothesis_result=hypothesis_result)
        if self._core is not None and key is not None:
            self._round_cache[(key, self._core.version)] = breakdown
            while len(self._round_cache) > self.ROUND_CACHE_LIMIT:
                self._round_cache.popitem(last=False)
        return breakdown

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
