"""Compile a batch of queries into per-family groups and evaluate them.

The engine's entry points take a *heterogeneous* list of queries —
:class:`~repro.losses.linear.LinearQuery` tables, GLM losses with
per-query feature rotations, anything implementing
:class:`~repro.losses.base.LossFunction` — and partition it into groups
that share a vectorized kernel (:mod:`repro.engine.kernels`):

================  =============================================  ===========
group             members                                        kernel
================  =============================================  ===========
``linear``        ``LinearQuery``                                loss matrix
``linear-cm``     ``LinearQueryAsCM``                            moments
``glm``           ``SquaredLoss`` / ``LogisticLoss`` /           margin
                  ``HingeLoss`` / ``HuberLoss`` (exact type,     matrix
                  matching link parameters)
``fallback``      everything else                                per-query
================  =============================================  ===========

Data minima take one of three routes per query: a shared closed form
(``linear-cm``; squared GLMs over a ball on a labeled universe), one
lockstep solve (:func:`repro.optimize.lockstep.lockstep_minimize`) for
every other GLM over an L2 ball *across* link families, or
:func:`~repro.optimize.minimize.minimize_loss` for the rest.

Grouping is by *exact* type plus the link parameters the kernel depends
on, so a subclass with an overridden link never silently rides a kernel
that does not match its math — it falls back to the per-query path, which
is always correct.

Results agree with the scalar path up to floating-point associativity
(``~1e-12`` absolute in practice; the property tests in
``tests/property/test_batch_agreement.py`` pin this down), because each
kernel computes the same quantity through a reassociated product — never
a different approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend import backend_of
from repro.data.histogram import Histogram
from repro.engine import kernels
from repro.exceptions import ValidationError
from repro.losses.linear import LinearQuery, LinearQueryAsCM
from repro.losses.squared import SquaredLoss
from repro.obs import trace
from repro.optimize.lockstep import (
    GLM_BLOCK_ROWS,
    glm_family,
    lockstep_eligible,
    lockstep_minimize,
)
from repro.optimize.minimize import MinimizeResult, minimize_loss
from repro.optimize.projections import L2Ball

__all__ = [
    "CompiledBatch",
    "compile_batch",
    "batch_answers",
    "batch_loss_on",
    "batch_data_minima",
    "closed_form_minima",
    "dedupe_by_fingerprint",
]

_LINEAR = "linear"
_LINEAR_CM = "linear-cm"
_GLM = "glm"
_FALLBACK = "fallback"

_CLOSED = "closed"
_LOCKSTEP = "lockstep"
_SCALAR = "scalar"


def _family_key(query):
    if type(query) is LinearQuery:
        return (_LINEAR,)
    if type(query) is LinearQueryAsCM:
        return (_LINEAR_CM,)
    family = glm_family(query)
    if family is not None:
        return (_GLM, *family)
    return (_FALLBACK,)


def _minimum_route(query, labeled: bool) -> str:
    """How a batch computes ``query``'s data minimum (see module doc).

    ``labeled`` says whether the target universe carries labels: the
    squared closed form needs them, and without them the lockstep solve
    raises the same error the scalar path does.
    """
    kind = _family_key(query)[0]
    if kind == _LINEAR_CM:
        return _CLOSED
    if (type(query) is SquaredLoss and labeled
            and isinstance(query.domain, L2Ball)):
        return _CLOSED
    if kind == _GLM and lockstep_eligible(query):
        return _LOCKSTEP
    return _SCALAR


@dataclass
class _Group:
    """One kernel-compatible slice of a batch (positions + members)."""

    kind: str
    indices: list[int]
    members: list
    tables: np.ndarray | None = None  # stacked for linear/linear-cm groups
    _squared: np.ndarray | None = field(default=None, repr=False)

    def squared_tables(self) -> np.ndarray:
        """``tables * tables``, computed once per compiled group.

        The tables are immutable, and a CompiledBatch exists to be
        evaluated against many histograms — rebuilding this ``B×|X|``
        temporary per evaluation would dominate the moment kernel it
        feeds.
        """
        if self._squared is None:
            self._squared = self.tables * self.tables
        return self._squared


class CompiledBatch:
    """A batch of queries, grouped once, evaluated many times.

    Compiling is cheap (type dispatch plus stacking linear tables); the
    point of keeping the compiled object around is re-evaluating the same
    batch against *different* histograms — the serving layer answers a
    batch against an evolving public hypothesis, and PMW-linear replays
    its stream suffix after every update.
    """

    def __init__(self, queries) -> None:
        self.queries = list(queries)
        self._groups: list[_Group] = []
        buckets: dict[tuple, list[int]] = {}
        for index, query in enumerate(self.queries):
            buckets.setdefault(_family_key(query), []).append(index)
        for key, indices in buckets.items():
            members = [self.queries[i] for i in indices]
            tables = None
            if key[0] == _LINEAR:
                tables = kernels.stack_tables(members)
            elif key[0] == _LINEAR_CM:
                tables = kernels.stack_tables(
                    [loss.query for loss in members]
                )
            self._groups.append(
                _Group(kind=key[0], indices=indices, members=members,
                       tables=tables)
            )

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def group_kinds(self) -> list[str]:
        """The kernel kind of each group (diagnostics / tests)."""
        return [group.kind for group in self._groups]

    # -- evaluation --------------------------------------------------------

    def linear_answers(self, histogram: Histogram) -> np.ndarray:
        """All ``<q_j, D>`` answers in one matvec (``LinearQuery`` only)."""
        out = np.empty(len(self.queries))
        for group in self._groups:
            if group.kind != _LINEAR:
                raise ValidationError(
                    f"linear_answers needs a LinearQuery batch; found a "
                    f"{type(group.members[0]).__name__}"
                )
            out[group.indices] = kernels.linear_answers(group.tables,
                                                        histogram)
        return out

    def loss_values(self, thetas, histogram: Histogram) -> np.ndarray:
        """The batch ``[l_D(theta_j)]`` — one vectorized pass per family.

        ``thetas`` is a sequence of per-query parameters, aligned with the
        compiled query order. Raises for ``LinearQuery`` members (they
        answer via :meth:`linear_answers`, not a parameter).
        """
        thetas = list(thetas)
        if len(thetas) != len(self.queries):
            raise ValidationError(
                f"{len(thetas)} thetas for {len(self.queries)} queries"
            )
        out = np.empty(len(self.queries))
        for group in self._groups:
            group_thetas = [thetas[i] for i in group.indices]
            if group.kind == _LINEAR:
                raise ValidationError(
                    "loss_values is for CM queries; LinearQuery batches "
                    "answer via linear_answers"
                )
            if group.kind == _LINEAR_CM:
                out[group.indices] = _linear_cm_values(
                    group, group_thetas, histogram)
            elif group.kind == _GLM:
                out[group.indices] = _glm_values(
                    group.members, group_thetas, histogram)
            else:
                out[group.indices] = [
                    float(loss.loss_on(np.asarray(theta, dtype=float),
                                       histogram))
                    for loss, theta in zip(group.members, group_thetas)
                ]
        return out

    def data_minima(self, histogram: Histogram, *, solver_steps=400,
                    starts=None) -> list[MinimizeResult]:
        """Batched ``argmin_theta l(theta; D)`` per query.

        Closed forms are batched through moment kernels
        (``linear-cm`` exactly, squared-family GLMs via one shared
        universe-sized moment computation). Every other GLM over an L2
        ball, whatever its link family, joins one lockstep solve; the
        remaining losses go through the same
        :func:`~repro.optimize.minimize.minimize_loss` call the scalar
        path makes. ``solver_steps`` is one budget or one per query and
        ``starts`` optional warm starts aligned with the queries; both
        matter only to iterative solves.
        """
        count = len(self.queries)
        budgets = ([solver_steps] * count if np.ndim(solver_steps) == 0
                   else list(solver_steps))
        starts = [None] * count if starts is None else list(starts)
        if len(budgets) != count or len(starts) != count:
            raise ValidationError(
                f"solver_steps and starts must align with the {count} "
                f"queries")
        labeled = histogram.universe.labels is not None
        results: list[MinimizeResult | None] = [None] * count
        lockstep: list[int] = []
        for group in self._groups:
            if group.kind == _LINEAR:
                raise ValidationError(
                    "data_minima is for CM queries; LinearQuery batches "
                    "answer via linear_answers"
                )
            if group.kind == _LINEAR_CM:
                for index, result in zip(
                        group.indices, _linear_cm_minima(group, histogram)):
                    results[index] = result
                continue
            closed = []
            for index, loss in zip(group.indices, group.members):
                route = _minimum_route(loss, labeled)
                if route == _CLOSED:
                    closed.append(index)
                elif route == _LOCKSTEP:
                    lockstep.append(index)
                else:
                    results[index] = minimize_loss(
                        loss, histogram, steps=budgets[index],
                        start=starts[index])
            if closed:
                minima = _squared_minima(
                    [self.queries[index] for index in closed], histogram)
                for index, result in zip(closed, minima):
                    results[index] = result
        if lockstep:
            minima = lockstep_minimize(
                [self.queries[index] for index in lockstep], histogram,
                steps=[budgets[index] for index in lockstep],
                starts=[starts[index] for index in lockstep])
            for index, result in zip(lockstep, minima):
                results[index] = result
        return results


def _linear_cm_moments(group: _Group,
                       histogram: Histogram) -> tuple[np.ndarray, np.ndarray]:
    """First/second query moments ``(<q, D>, <q², D>)`` for the group."""
    first = kernels.linear_answers(group.tables, histogram)
    second = kernels.linear_answers(group.squared_tables(), histogram)
    return first, second


def _linear_cm_value(theta: np.ndarray, first: np.ndarray,
                     second: np.ndarray) -> np.ndarray:
    """``E[(theta - q)^2 / 4] = (theta² - 2·theta·<q,D> + <q²,D>) / 4``."""
    return 0.25 * (theta * theta - 2.0 * theta * first + second)


def _linear_cm_values(group: _Group, thetas,
                      histogram: Histogram) -> np.ndarray:
    """``E[(theta - q)^2 / 4]`` via first/second query moments."""
    theta = np.array([float(np.asarray(t, dtype=float).ravel()[0])
                      for t in thetas])
    first, second = _linear_cm_moments(group, histogram)
    return _linear_cm_value(theta, first, second)


def _row_answers(tables: np.ndarray, histogram: Histogram) -> np.ndarray:
    """:func:`kernels.linear_answers` one row at a time.

    A stacked matvec may sum a row in a different order depending on how
    many rows share the call, so a minimum computed this way does not
    depend on which other queries share its batch.
    """
    return np.concatenate([kernels.linear_answers(tables[i:i + 1], histogram)
                           for i in range(tables.shape[0])])


def _linear_cm_minima(group: _Group,
                      histogram: Histogram) -> list[MinimizeResult]:
    """Exact minimizers ``clip(<q, D>, 0, 1)``, each a function of its
    own query and ``D`` alone (see :func:`_row_answers`)."""
    first = _row_answers(group.tables, histogram)
    second = _row_answers(group.squared_tables(), histogram)
    theta = np.clip(first, 0.0, 1.0)
    values = _linear_cm_value(theta, first, second)
    return [
        MinimizeResult(np.array([float(t)]), float(v), True)
        for t, v in zip(theta, values)
    ]


def _glm_values(losses, thetas, histogram: Histogram) -> np.ndarray:
    """Margin-matrix evaluation of a same-link GLM group, universe-blocked.

    Per block of :data:`~repro.optimize.lockstep.GLM_BLOCK_ROWS` universe
    rows: one ``block×d @ d×B`` matmul, one vectorized link evaluation,
    one ``wᵀV`` accumulation. The block's matrices stay cache-resident,
    so the batch streams the universe points once instead of
    materializing two ``|X| × B`` temporaries — this blocking, not the
    matmul alone, is where the ≥3x of ``benchmarks/bench_batch_engine.py``
    comes from on cheap-link families. Summation is reassociated across
    blocks (``~1e-15`` vs the scalar path).
    """
    universe = histogram.universe
    prototype = losses[0]
    for loss in losses:  # same incompatibility error as the scalar path
        loss.check_universe_dim(universe)
    parameters = kernels.glm_parameter_matrix(losses, thetas)
    points = universe.points
    # The prototype's own accessor, so an unlabeled universe raises the
    # same LossSpecificationError the scalar path would — batching must
    # not change which exception a caller handles.
    labels = prototype._labels(universe)
    weights = histogram.weights
    backend = backend_of(histogram)
    out = np.zeros(len(losses))
    for start in range(0, universe.size, GLM_BLOCK_ROWS):
        stop = min(start + GLM_BLOCK_ROWS, universe.size)
        margins = kernels.glm_margin_matrix(points[start:stop], parameters,
                                            backend=backend)
        block_labels = (labels[start:stop, None]
                        if labels is not None else None)
        values = prototype.link(margins, block_labels)
        out += weights[start:stop] @ values
    return out


def _squared_minima(losses, histogram: Histogram) -> list[MinimizeResult]:
    """Squared-loss data minima sharing one universe-sized moment pass.

    ``E[(x Rᵀ)(x Rᵀ)ᵀ] = R E[x xᵀ] Rᵀ`` and ``E[y (R x)] = R E[y x]``, so
    the batch pays for the moments once and each member solves a ``d×d``
    trust-region subproblem. Every member meets the closed form's
    preconditions (ball domain, labeled universe; see
    :func:`_minimum_route`).
    """
    universe = histogram.universe
    labels = universe.labels
    for loss in losses:
        loss.check_universe_dim(universe)  # scalar-path error parity
    base_second = kernels.second_moment(universe.points, histogram)
    base_cross = kernels.cross_moment(universe.points, labels, histogram)
    label_second = float(histogram.weights @ (labels * labels))
    results = []
    for loss in losses:
        theta, second, cross = loss.closed_form(base_second, base_cross)
        theta = loss.domain.project(np.asarray(theta, dtype=float))
        c = loss.normalization
        value = c * (theta @ second @ theta - 2.0 * (cross @ theta)
                     + label_second)
        results.append(MinimizeResult(theta, float(value), True))
    return results


# -- functional façade -----------------------------------------------------


def compile_batch(queries) -> CompiledBatch:
    """Group a query batch by kernel family (see :class:`CompiledBatch`)."""
    return CompiledBatch(queries)


def batch_answers(queries, histogram: Histogram) -> np.ndarray:
    """All linear-query answers ``<q_j, D>`` in one vectorized pass."""
    with trace.span("engine.batch_answers", queries=len(queries)):
        return compile_batch(queries).linear_answers(histogram)


def batch_loss_on(losses, thetas, histogram: Histogram) -> np.ndarray:
    """The batch ``[l_D(theta_j)]`` in one vectorized pass per family."""
    with trace.span("engine.batch_loss_on", losses=len(losses)):
        return compile_batch(losses).loss_values(thetas, histogram)


def batch_data_minima(losses, histogram: Histogram, *, solver_steps=400,
                      starts=None) -> list[MinimizeResult]:
    """Batched data-side minimizations: closed forms vectorized, every
    other GLM over an L2 ball in one lockstep solve (see
    :meth:`CompiledBatch.data_minima`)."""
    with trace.span("engine.batch_minima", losses=len(losses)):
        return compile_batch(losses).data_minima(
            histogram, solver_steps=solver_steps, starts=starts)


def closed_form_minima(queries, *, universe=None):
    """The subset of ``queries`` whose batched :func:`batch_data_minima`
    dispatch is a *shared* closed-form kernel (squared-family GLMs via
    one moment computation, embedded linear queries).

    Those are worth batch-minimizing eagerly at any time: one moment
    pass serves the whole subset. The other GLMs over an L2 ball batch
    too, in one lockstep solve, but each column still pays its full step
    budget; consumers that can warm-start single solves (the hypothesis
    side of :class:`~repro.core.pmw_cm.PrivateMWConvex` before it halts)
    batch only this subset eagerly. The filter mirrors
    :func:`_minimum_route`: squared losses over a non-ball domain are
    solved per query, as are all of them when the ``universe`` the
    consumer will solve against carries no labels (pass it to enforce
    that; ``None`` skips the label check).
    """
    labeled = universe is None or universe.labels is not None
    return [query for query in queries
            if _minimum_route(query, labeled) == _CLOSED]


def dedupe_by_fingerprint(queries, *, skip=()):
    """First occurrence of each fingerprintable query in a lane.

    Returns aligned ``(keys, uniques)`` lists, preserving lane order.
    Queries whose state cannot be fingerprinted are dropped (they cannot
    ride a fingerprint-keyed cache), as are keys in ``skip`` (typically
    the consumer's already-warm cache keys). Mechanism ``prewarm`` hooks
    use this so a coalesced gateway batch full of repeats costs one
    kernel entry per *distinct* query, not per request.
    """
    from repro.exceptions import LossSpecificationError

    keys: list[str] = []
    uniques: list = []
    seen = set(skip)
    for query in queries:
        fingerprint = getattr(query, "fingerprint", None)
        if fingerprint is None:
            continue
        try:
            key = fingerprint()
        except LossSpecificationError:
            continue
        if key in seen:
            continue
        seen.add(key)
        keys.append(key)
        uniques.append(query)
    return keys, uniques
