"""Private multiplicative weights for linear queries (Hardt–Rothblum [HR10]).

The special case the paper extends, kept as a first-class baseline: it
answers Table 1's first row and gives the reference implementation the
CM mechanism's structure mirrors. Round structure (online variant):

1. ``q_j(D) = |<q_j, D> - <q_j, Dhat>|`` goes to the sparse vector
   (sensitivity ``1/n``).
2. On ``bottom``: answer ``<q_j, Dhat>`` from the public hypothesis.
3. On ``top``: release a Laplace-noised true answer, and update ``Dhat``
   multiplicatively toward it (increase weight where ``q_j`` under- or
   over-counts, by the sign of the discrepancy).

Whole streams go through the batched evaluation engine
(:mod:`repro.engine`): :meth:`PrivateMWLinear.answer_all` stacks the query
tables into one loss matrix, answers the true side with a single matvec
(the data histogram never changes), and precomputes hypothesis answers in
growing blocks — the hypothesis only changes on ``top`` rounds, so blocks
double while updates stay away and reset after one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import ArrayBackend, resolve_backend
from repro.core.config import PMWConfig
from repro.data.dataset import Dataset
from repro.data.histogram import Histogram
from repro.data.log_histogram import LogHistogram
from repro.dp.accountant import PrivacyAccountant, restore_accountant
from repro.dp.composition import per_round_budget
from repro.dp.sparse_vector import SparseVector
from repro.exceptions import (
    MechanismHalted,
    PrivacyBudgetExhausted,
    ValidationError,
)
from repro.losses.linear import LinearQuery
from repro.obs import trace
from repro.utils.rng import spawn_generators


@dataclass(frozen=True)
class LinearAnswer:
    """One answered linear query."""

    value: float
    from_update: bool
    query_index: int
    update_index: int | None = None


class PrivateMWLinear:
    """Online PMW for linear queries, parameterized like the CM mechanism.

    Parameters mirror :class:`repro.core.pmw_cm.PrivateMWConvex` with
    ``scale = 1`` (query tables live in ``[0, 1]``, so the MW directions
    are already normalized).

    No memo and no ``prewarm`` hook: a scalar round's ``<q, D>`` is one
    dot product, cheaper than a lookup, and the same dot in every round
    keeps an answer independent of the serving lane it arrived in.
    """

    def __init__(self, dataset: Dataset, *, alpha: float, beta: float = 0.05,
                 epsilon: float = 1.0, delta: float = 1e-6,
                 schedule: str = "calibrated", max_updates: int | None = None,
                 noise_multiplier: float = 1.0,
                 versioned_core: bool = True,
                 backend: str | ArrayBackend | None = None,
                 rng=None) -> None:
        self._dataset = dataset
        self._data_histogram = dataset.histogram()
        self.config = PMWConfig.from_targets(
            alpha=alpha, beta=beta, epsilon=epsilon, delta=delta,
            scale=1.0, universe_size=dataset.universe.size,
            schedule=schedule, max_updates=max_updates,
        )
        sv_rng, laplace_rng = spawn_generators(rng, 2)
        self._laplace_rng = laplace_rng
        self.accountant = PrivacyAccountant()
        self._sparse_vector = SparseVector(
            alpha=self.config.alpha,
            sensitivity=1.0 / dataset.n,
            epsilon=self.config.sv_epsilon,
            delta=self.config.sv_delta,
            max_above=self.config.max_updates,
            rng=sv_rng,
            noise_multiplier=noise_multiplier,
            accountant=self.accountant,
        )
        # Per-update Laplace measurement budget: eps/2 split across T
        # measurements by advanced composition.
        measurement = per_round_budget(self.config.sv_epsilon,
                                       self.config.sv_delta,
                                       self.config.max_updates)
        self._measurement_epsilon = measurement.epsilon
        self.versioned_core = bool(versioned_core)
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
        self._updates = 0
        self._queries = 0

    # -- public state ---------------------------------------------------------

    @property
    def hypothesis(self) -> Histogram:
        """The current public hypothesis (a frozen per-version view when
        the versioned core is active)."""
        if self._core is not None:
            return self._core.freeze()
        return self._hypothesis

    @property
    def hypothesis_version(self) -> int:
        """Monotone hypothesis version (see
        :attr:`repro.core.pmw_cm.PrivateMWConvex.hypothesis_version`)."""
        if self._core is not None:
            return self._core.version
        return self._updates

    @property
    def updates_performed(self) -> int:
        """Number of update (``top``) rounds so far."""
        return self._updates

    @property
    def queries_answered(self) -> int:
        """Number of queries answered so far."""
        return self._queries

    @property
    def halted(self) -> bool:
        """Whether the update budget is exhausted."""
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

    # -- answering ---------------------------------------------------------------

    def answer(self, query: LinearQuery) -> LinearAnswer:
        """Answer one linear query."""
        if self.halted:
            raise MechanismHalted(
                f"PMW-linear exhausted its update budget "
                f"T={self.config.max_updates}"
            )
        self._validate_query(query)
        with trace.span("mechanism.solve"):
            true_answer = self._data_histogram.dot(query.table)
            hypothesis_answer = self._hypothesis_dot(query.table)
        return self._answer_given(
            query,
            true_answer=true_answer,
            hypothesis_answer=hypothesis_answer,
        )

    def _hypothesis_dot(self, table: np.ndarray) -> float:
        """``<q, Dhat>`` — off the core's shared materialization when
        versioned (amortized across every same-version read)."""
        if self._core is not None:
            return self._core.dot(table)
        return self._hypothesis.dot(table)

    def _answer_given(self, query: LinearQuery, *, true_answer: float,
                      hypothesis_answer: float) -> LinearAnswer:
        """The mechanism round, with the two inner products precomputed.

        Shared by the scalar path (:meth:`answer` computes the dots) and
        the batched path (:meth:`answer_all` reads them from the engine's
        loss-matrix pass); everything that touches privacy — pre-flight,
        the sparse-vector slot, the Laplace measurement, the MW update —
        happens here, identically for both.
        """
        discrepancy = abs(true_answer - hypothesis_answer)
        # Pre-flight the armed budget before the sparse vector consumes a
        # slot (see PrivateMWConvex.answer for the failure mode). The
        # query counter advances only after the refusal point, so refused
        # queries leave no phantom stream slots.
        self.accountant.preflight(self._measurement_epsilon, 0.0,
                                  label=f"measure:{query.name}")
        index = self._queries
        self._queries += 1
        with trace.span("mechanism.svt"):
            sv_answer = self._sparse_vector.process(discrepancy)

        if not sv_answer.above:
            return LinearAnswer(value=hypothesis_answer, from_update=False,
                                query_index=index)

        with trace.span("mechanism.mw_update", query=query.name):
            noisy_answer = true_answer + float(self._laplace_rng.laplace(
                0.0, 1.0 / (self._dataset.n * self._measurement_epsilon)
            ))
            self.accountant.spend(self._measurement_epsilon, 0.0,
                                  label=f"measure:{query.name}")
            noisy_answer = float(np.clip(noisy_answer, 0.0, 1.0))

            # MW update: if the hypothesis under-counts (noisy >
            # hypothesis), raise weight where q(x) is large; if it
            # over-counts, lower it.
            sign = 1.0 if noisy_answer > hypothesis_answer else -1.0
            if self._core is not None:
                # In-place log-domain accumulation; (±eta)·q is bitwise
                # the same increment as the immutable update's eta·(±q).
                self._core.apply_update(query.table, sign * self.config.eta)
            else:
                self._hypothesis = self._hypothesis.multiplicative_update(
                    sign * query.table, self.config.eta
                )
        update_index = self._updates
        self._updates += 1
        return LinearAnswer(value=noisy_answer, from_update=True,
                            query_index=index, update_index=update_index)

    def _validate_query(self, query: LinearQuery) -> None:
        if query.table.size != self._dataset.universe.size:
            raise ValidationError(
                f"query over {query.table.size} elements does not match the "
                f"universe size {self._dataset.universe.size}"
            )

    # -- snapshot / restore ------------------------------------------------------

    #: Written format; see PrivateMWConvex.SNAPSHOT_FORMAT for the v1→v2
    #: (raw log-domain core state) and v2→v3 (RLE accountant records —
    #: an old reader would silently under-count budget) schema changes.
    SNAPSHOT_FORMAT = "repro.pmw_linear/v3"
    ACCEPTED_SNAPSHOT_FORMATS = ("repro.pmw_linear/v1",
                                 "repro.pmw_linear/v2",
                                 "repro.pmw_linear/v3")

    def snapshot(self) -> dict:
        """Full mechanism state (minus the private dataset); see
        :meth:`repro.core.pmw_cm.PrivateMWConvex.snapshot`."""
        config = self.config
        return {
            "format": self.SNAPSHOT_FORMAT,
            "config": {
                "alpha": config.alpha, "beta": config.beta,
                "epsilon": config.epsilon, "delta": config.delta,
                "universe_size": config.universe_size,
                "schedule": config.schedule,
                "max_updates": config.max_updates,
            },
            "noise_multiplier": self._sparse_vector.noise_multiplier,
            "versioned_core": self.versioned_core,
            "backend": self.backend_name,
            # One hypothesis representation: the raw log-domain core
            # state (versioned) or the normalized weights (legacy).
            "hypothesis_weights": (self._hypothesis.weights.tolist()
                                   if self._core is None else None),
            "hypothesis_core": (self._core.state_dict()
                                if self._core is not None else None),
            "updates": self._updates,
            "queries": self._queries,
            "sparse_vector": self._sparse_vector.state_dict(),
            "laplace_rng_state": self._laplace_rng.bit_generator.state,
            "accountant": {
                "records": self.accountant.to_grouped_records(),
                "epsilon_budget": self.accountant.epsilon_budget,
                "delta_budget": self.accountant.delta_budget,
            },
        }

    @classmethod
    def restore(cls, snapshot: dict, dataset: Dataset, *, rng=None,
                backend: str | ArrayBackend | None = None,
                ) -> "PrivateMWLinear":
        """Rebuild a mechanism from :meth:`snapshot` output.

        ``backend`` overrides the snapshotted backend; hypothesis
        payloads are backend-independent ``float64``, so cross-backend
        restores are exact, and retired shard-layout keys are ignored
        (see PrivateMWConvex.restore).
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
            dataset, alpha=config["alpha"], beta=config["beta"],
            epsilon=config["epsilon"], delta=config["delta"],
            schedule=config["schedule"], max_updates=config["max_updates"],
            noise_multiplier=snapshot["noise_multiplier"],
            # Pre-versioned-core snapshots restore onto the legacy path
            # (they carry only normalized weights).
            versioned_core=snapshot.get("versioned_core", False),
            backend=(backend if backend is not None
                     else snapshot.get("backend")),
            rng=rng,
        )
        if mechanism._core is not None:
            mechanism._core = LogHistogram.from_state(
                dataset.universe, snapshot["hypothesis_core"],
                backend=mechanism._backend)
        else:
            mechanism._hypothesis = Histogram(
                dataset.universe,
                np.asarray(snapshot["hypothesis_weights"], dtype=float),
                backend=mechanism._backend,
            )
        mechanism._updates = int(snapshot["updates"])
        mechanism._queries = int(snapshot["queries"])
        mechanism._sparse_vector.load_state_dict(snapshot["sparse_vector"])
        mechanism._laplace_rng.bit_generator.state = snapshot["laplace_rng_state"]
        mechanism.accountant = restore_accountant(snapshot["accountant"])
        return mechanism

    #: answer_all stacks independently built tables into one loss matrix
    #: only below this copy size; above it (e.g. 64 queries over a 10^7
    #: universe would be a multi-GB copy) it keeps per-query evaluation,
    #: whose extra memory is O(1). Shared-matrix families (zero-copy
    #: stacking) always take the matrix path regardless of size.
    STACK_COPY_LIMIT_BYTES = 128 * 2**20

    def answer_all(self, queries, *, on_halt: str = "raise") -> list[LinearAnswer]:
        """Answer a query stream through the batched evaluation engine.

        Semantics match a loop of :meth:`answer` calls (same sparse-vector
        stream, same noise draws, same ``on_halt`` behaviour as PMW-CM's
        ``answer_all``); the evaluation strategy differs:

        - the *true* answers for the whole stream are one loss-matrix
          matvec against the (immutable) data histogram;
        - the *hypothesis* answers stream through a
          :class:`~repro.engine.versioned.VersionedBatchEvaluator` —
          per-entry version stamps against the hypothesis core, so only
          entries stale under the current version recompute, in growing
          blocks (doubling while no update lands, reset by one — the
          tail of a sparse stream is a few large matmuls, and an update
          throws away at most one block of lookahead).

        The loss matrix is zero-copy for shared-matrix query families;
        independently built tables are stacked only up to
        :attr:`STACK_COPY_LIMIT_BYTES`, beyond which the stream keeps
        per-query dot products (identical semantics, O(1) extra memory).

        Values agree with the scalar path to floating-point reassociation
        (``~1e-15``; see ``tests/property/test_batch_agreement.py``).
        """
        from repro.engine import kernels
        from repro.engine.versioned import VersionedBatchEvaluator

        if on_halt not in ("raise", "hypothesis"):
            raise ValidationError(
                f"on_halt must be 'raise' or 'hypothesis', got {on_halt!r}"
            )
        queries = list(queries)
        for query in queries:
            self._validate_query(query)
        if not queries:
            return []
        if self.halted:
            # No mechanism round will run: skip the loss-matrix build and
            # the true-answer pass entirely (their results would be dead).
            if on_halt == "raise":
                raise MechanismHalted(
                    "update budget exhausted before the stream ended"
                )
            return [self._hypothesis_answer(query) for query in queries]

        tables = kernels.shared_table_matrix(queries)
        if tables is None and (len(queries) * queries[0].table.size * 8
                               <= self.STACK_COPY_LIMIT_BYTES):
            tables = kernels.stack_tables(queries)
        if tables is not None:
            true_answers = tables @ self._data_histogram.weights
            # Per-entry version stamps: the evaluator recomputes only
            # entries stale under the hypothesis's current version, in
            # growing blocks — an update invalidates at most one block
            # of lookahead, update-free tails collapse into a few large
            # matmuls, and no bookkeeping here needs to know when an
            # update landed. The evaluator casts the tables to the
            # mechanism backend's dtype once, so refresh matmuls run at
            # backend precision against the backend-native hypothesis
            # weights (a no-op cast on the NumPy default).
            evaluator = VersionedBatchEvaluator(tables,
                                                backend=self._backend)

        answers = []
        for j, query in enumerate(queries):
            if tables is not None:
                hypothesis_answer = evaluator.answer(
                    *self._hypothesis_state(), j)
            else:  # bounded-memory path: same dots the scalar round does
                hypothesis_answer = self._hypothesis_dot(query.table)
            if self.halted:
                if on_halt == "raise":
                    raise MechanismHalted(
                        "update budget exhausted before the stream ended"
                    )
                answers.append(self._hypothesis_answer(
                    query, value=hypothesis_answer))
                continue
            true_answer = (float(true_answers[j]) if tables is not None
                           else self._data_histogram.dot(query.table))
            try:
                answer = self._answer_given(
                    query, true_answer=true_answer,
                    hypothesis_answer=hypothesis_answer,
                )
            except PrivacyBudgetExhausted:
                if on_halt == "raise":
                    raise
                answers.append(self._hypothesis_answer(
                    query, value=hypothesis_answer))
                continue
            answers.append(answer)
        return answers

    def _hypothesis_state(self) -> tuple[np.ndarray, int]:
        """``(weights, version)`` for version-stamped batch evaluation."""
        if self._core is not None:
            return self._core.weights, self._core.version
        return self._hypothesis.weights, self._updates

    def _hypothesis_answer(self, query: LinearQuery,
                           value: float | None = None) -> LinearAnswer:
        """Serve from the public hypothesis (free post-processing)."""
        self._queries += 1
        if value is None:
            value = self._hypothesis_dot(query.table)
        return LinearAnswer(
            value=float(value),
            from_update=False, query_index=self._queries - 1,
        )


