"""The paper's stated bounds, as evaluable formulas.

Every theorem-level quantity in the paper is encoded here so the benchmark
harness can print *paper-vs-measured* tables:

- Figure 3's update budget ``T = 64 S^2 log|X| / alpha^2``;
- Theorem 3.1's sparse-vector sample bound (re-exported from
  :mod:`repro.dp.composition`);
- Theorem 3.8's mechanism sample bound;
- Table 1: the single-query and k-query sample complexities for all four
  loss-family rows (up to the suppressed polylog/constant factors —
  formulas are evaluated with leading constant 1 and natural logs, which
  is what "shape reproduction" compares against).

Inner solves and the sparse-vector error query
----------------------------------------------
Sparse vector is private only if each error query
``q_j(D) = l_D(theta_hat_j) - min_theta l_D(theta)`` is a *fixed*
function of the data with sensitivity at most ``3S/n`` (Section 3.4.2;
:meth:`repro.core.config.PMWConfig.sensitivity`). ``theta_hat_j`` comes
from the public hypothesis alone; the minimum is whatever value the
inner solver reaches on ``D``. The lockstep GLM solver
(:mod:`repro.optimize.lockstep`), which now computes both sides for
GLMs over an L2 ball and batches them across queries, computes the same
function of ``D`` the scalar solver did, so the argument is unchanged:

- **Fixed step budget.** Every column runs exactly its budget. The
  budget is fixed before the solve from public state (``solver_steps``,
  and for hypothesis-side solves the warm-start rule over public
  hypothesis versions). It does not depend on the data, and nothing
  stops early on a data-dependent criterion.
- **Independent columns.** Each column keeps its own step size, suffix
  average and best-seen iterate. No step size, stop rule or reduction is
  shared across the batch, so one query's value cannot depend on another
  query's trajectory on ``D``. Each column's arithmetic is a separate
  stacked product, so it is bitwise the same at any batch width and
  position.
- **Deterministic.** The result is a deterministic function of
  ``(loss, D, start, steps)`` — hence of ``(loss, D, batch)`` — with no
  random draws, so ``q_j`` is a function of ``D`` as the analysis needs.
  Batching a lane's data-side minima ahead of its rounds (``prewarm``)
  changes when the value is computed, never what it is.

Shared minima across sessions
-----------------------------
Sessions over one dataset share inner-solve results through
:mod:`repro.engine.memo`. Privacy is unchanged:

- **Each cached value is a fixed function.** A data-side entry is the
  deterministic, fixed-budget value of ``(loss, D, solver_steps)``:
  every route of the engine call that computes it gives a query the
  same result whatever else shares its batch. A prior entry is a cold
  solve on the uniform prior ``Dhat_1``, which is public, under a
  public backend and step budget.
- **No release changes.** Each session uses exactly the value it would
  have computed alone, so its error queries, sparse-vector decisions,
  oracle calls and answers are the same, bit for bit, and its privacy
  accounting is untouched. Sharing saves work; it adds no function of
  ``D`` to any session's view.
- **Caveat: timing.** A hit returns sooner than a solve, so an analyst
  who times answers can learn that another analyst on the same dataset
  already asked an equal query. That concerns the confidentiality of
  queries between analysts, not the differential privacy of the rows
  of ``D``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.dp.composition import sparse_vector_sample_bound

__all__ = [
    "update_budget",
    "theorem_3_8_sample_size",
    "sparse_vector_sample_bound",
    "single_query_n",
    "k_query_n",
    "Table1Row",
    "table1_rows",
    "composition_error_exponent",
    "pmw_error_exponent",
]


def update_budget(scale: float, universe_size: int, alpha: float) -> int:
    """Figure 3: ``T = ceil(64 S^2 log|X| / alpha^2)``."""
    return max(1, math.ceil(
        64.0 * scale * scale * math.log(universe_size) / (alpha * alpha)
    ))


def theorem_3_8_sample_size(scale: float, universe_size: int, alpha: float,
                            epsilon: float, delta: float, k: int,
                            beta: float, oracle_n: float = 0.0) -> float:
    """Theorem 3.8: ``n = max(n', 4096 S^2 sqrt(log|X| log(4/d)) log(8k/b) / (e a^2))``."""
    mechanism = (
        4096.0 * scale * scale
        * math.sqrt(math.log(universe_size) * math.log(4.0 / delta))
        * math.log(8.0 * k / beta)
        / (epsilon * alpha * alpha)
    )
    return max(float(oracle_n), mechanism)


# ---------------------------------------------------------------------------
# Table 1 (constants suppressed: leading constant 1, natural logs).
# ---------------------------------------------------------------------------

def _linear_single(alpha: float, **_) -> float:
    return 1.0 / alpha


def _linear_k(alpha: float, log_size: float, k: int, **_) -> float:
    return math.sqrt(log_size) * math.log(max(k, 2)) / alpha**2


def _lipschitz_single(alpha: float, d: int, **_) -> float:
    return math.sqrt(d) / alpha


def _lipschitz_k(alpha: float, d: int, log_size: float, k: int, **_) -> float:
    return max(
        math.sqrt(d * log_size) / alpha**2,
        math.log(max(k, 2)) * math.sqrt(log_size) / alpha**2,
    )


def _uglm_single(alpha: float, **_) -> float:
    return 1.0 / alpha**2


def _uglm_k(alpha: float, log_size: float, k: int, **_) -> float:
    return max(
        math.sqrt(log_size) / alpha**3,
        math.log(max(k, 2)) * math.sqrt(log_size) / alpha**2,
    )


def _strongly_convex_single(alpha: float, d: int, sigma: float, **_) -> float:
    return math.sqrt(d) / (sigma * alpha)


def _strongly_convex_k(alpha: float, d: int, log_size: float, k: int,
                       sigma: float, **_) -> float:
    return max(
        math.sqrt(d * log_size) / (sigma * alpha**3),
        math.log(max(k, 2)) * math.sqrt(log_size) / alpha**2,
    )


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1 with both of its sample-complexity formulas."""

    key: str
    restrictions: str
    single_query: Callable[..., float]
    k_queries: Callable[..., float]
    single_source: str
    k_source: str


_TABLE1 = [
    Table1Row(
        key="linear",
        restrictions="Linear queries",
        single_query=_linear_single, k_queries=_linear_k,
        single_source="[DMNS06]", k_source="[HR10]",
    ),
    Table1Row(
        key="lipschitz",
        restrictions="Lipschitz, d-bounded",
        single_query=_lipschitz_single, k_queries=_lipschitz_k,
        single_source="[BST14]", k_source="this paper",
    ),
    Table1Row(
        key="uglm",
        restrictions="Lipschitz, d-bounded, UGLM",
        single_query=_uglm_single, k_queries=_uglm_k,
        single_source="[JT14]", k_source="this paper",
    ),
    Table1Row(
        key="strongly_convex",
        restrictions="Lipschitz, d-bounded, sigma-strongly convex",
        single_query=_strongly_convex_single, k_queries=_strongly_convex_k,
        single_source="[BST14]", k_source="this paper",
    ),
]


def table1_rows() -> list[Table1Row]:
    """All four Table 1 rows, in paper order."""
    return list(_TABLE1)


def single_query_n(row_key: str, *, alpha: float, d: int = 1,
                   sigma: float = 1.0) -> float:
    """Evaluate a row's single-query sample complexity (shape only)."""
    row = _row(row_key)
    return row.single_query(alpha=alpha, d=d, sigma=sigma)


def k_query_n(row_key: str, *, alpha: float, k: int, universe_size: int,
              d: int = 1, sigma: float = 1.0) -> float:
    """Evaluate a row's k-query sample complexity (shape only)."""
    row = _row(row_key)
    return row.k_queries(alpha=alpha, k=k, log_size=math.log(universe_size),
                         d=d, sigma=sigma)


def _row(row_key: str) -> Table1Row:
    for row in _TABLE1:
        if row.key == row_key:
            return row
    raise KeyError(
        f"unknown Table 1 row {row_key!r}; known: "
        f"{[row.key for row in _TABLE1]}"
    )


# ---------------------------------------------------------------------------
# Error-vs-k exponents (for the E5 crossover experiment).
# ---------------------------------------------------------------------------

def composition_error_exponent() -> float:
    """Composition: per-query budget ``~eps/sqrt(k)``, so error ``~ k^{1/2}``.

    For an oracle whose error scales like ``1/(n * eps0)`` (the Lipschitz
    row), splitting ``eps`` over ``k`` queries by advanced composition
    multiplies the error by ``~sqrt(k)`` — exponent ``0.5`` in ``k``.
    """
    return 0.5


def pmw_error_exponent() -> float:
    """PMW: error grows like ``log k`` — exponent 0 in any power law.

    Returned as 0.0; the benchmark compares a fitted power-law slope of the
    measured error-vs-k series against these two exponents.
    """
    return 0.0
