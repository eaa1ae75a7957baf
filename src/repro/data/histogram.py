"""Probability histograms over a finite universe.

The paper represents a dataset ``D`` by its histogram: a vector ``D ∈ R^X``
with ``D(x) = Pr[random row = x]`` (Section 2.1). The multiplicative-weights
update (Figure 3) is an operation on histograms:

    ``Dhat_{t+1}(x) ∝ exp(eta * u_t(x)) * Dhat_t(x)``

:class:`Histogram` makes that update a first-class, numerically careful
operation (log-space accumulation), and provides the inner products,
distances, and divergences the analysis uses.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, resolve_backend
from repro.data.universe import Universe
from repro.exceptions import UniverseError, ValidationError
from repro.utils.rng import as_generator
from repro.utils.validation import check_finite_array


def mass_annihilation_error(detail: str) -> ValidationError:
    """The shared diagnostic for an update that zeroed every weight.

    Raised (with a path-specific ``detail`` prefix) by the immutable
    update and the log-domain accumulator's materialization
    whenever no finite log-weight remains — instead of the opaque
    empty-``np.max`` crash this situation used to produce.
    """
    return ValidationError(
        f"{detail} annihilated all probability mass: no finite "
        f"log-weight remains (|eta * direction| overflowed on every "
        f"positive-weight element)"
    )


class Histogram:
    """A probability distribution over a :class:`Universe`.

    Weights are kept normalized (sum to 1, all non-negative). The class is
    immutable in style: updates return new histograms.

    ``backend`` selects the :class:`~repro.backend.base.ArrayBackend`
    running the heavy operations (updates, dots, sampling tables); the
    validated weight vector itself is always stored as ``float64`` —
    backend-native arrays only enter through the internal adoption
    constructors (the log-domain accumulator's ``freeze``).
    """

    def __init__(self, universe: Universe, weights: np.ndarray, *,
                 backend: str | ArrayBackend | None = None) -> None:
        weights = check_finite_array(weights, "weights", ndim=1)
        if weights.shape[0] != universe.size:
            raise UniverseError(
                f"weights has {weights.shape[0]} entries but universe has "
                f"{universe.size} elements"
            )
        if np.any(weights < -1e-12):
            raise ValidationError("histogram weights must be non-negative")
        total = float(weights.sum())
        if total <= 0.0:
            raise ValidationError("histogram weights must have positive total mass")
        self._universe = universe
        self._backend = resolve_backend(backend)
        self._weights = np.clip(weights, 0.0, None) / total
        self._weights.setflags(write=False)
        self._cdf: np.ndarray | None = None  # built lazily by sample_indices

    # -- constructors -----------------------------------------------------

    @classmethod
    def _adopt_normalized(cls, universe: Universe, normalized: np.ndarray,
                          *, backend: ArrayBackend | None = None,
                          ) -> "Histogram":
        """Wrap internally produced, already-normalized weights.

        The public constructor re-validates and copies (finiteness and
        sign masks, a clip, a division — several full-universe
        temporaries). Internal producers — the log-domain accumulator's
        ``freeze()`` and shared-memory dataset attachment — guarantee
        non-negative, finite, unit-mass weights by construction, so they
        are adopted in place. Callers with untrusted weights must use
        the constructor.
        """
        instance = cls.__new__(cls)
        normalized.setflags(write=False)
        instance._universe = universe
        instance._backend = resolve_backend(backend)
        instance._weights = normalized
        instance._cdf = None
        return instance

    @classmethod
    def uniform(cls, universe: Universe) -> "Histogram":
        """The uniform histogram ``Dhat_1`` used to initialize PMW."""
        return cls(universe, np.full(universe.size, 1.0 / universe.size))

    @classmethod
    def from_counts(cls, universe: Universe, counts: np.ndarray) -> "Histogram":
        """Histogram of a dataset given per-element counts."""
        return cls(universe, np.asarray(counts, dtype=float))

    @classmethod
    def point_mass(cls, universe: Universe, index: int) -> "Histogram":
        """Histogram placing all mass on one universe element."""
        weights = np.zeros(universe.size)
        weights[index] = 1.0
        return cls(universe, weights)

    # -- accessors ---------------------------------------------------------

    @property
    def universe(self) -> Universe:
        """The underlying universe."""
        return self._universe

    @property
    def weights(self) -> np.ndarray:
        """The probability vector (read-only view)."""
        return self._weights

    @property
    def backend(self) -> ArrayBackend:
        """The numeric backend running this histogram's heavy operations."""
        return self._backend

    def __len__(self) -> int:
        return self._universe.size

    def __getitem__(self, index: int) -> float:
        return float(self._weights[index])

    # -- algebra used by PMW ------------------------------------------------

    def dot(self, values: np.ndarray) -> float:
        """Expectation ``E_{x~D}[values(x)] = <values, D>``.

        For a linear query ``q`` this is exactly the query answer ``<q, D>``.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != self._weights.shape:
            raise ValidationError(
                f"values has shape {values.shape}, expected {self._weights.shape}"
            )
        return self._backend.dot(values, self._weights)

    def multiplicative_update(self, direction: np.ndarray, eta: float) -> "Histogram":
        """Apply the MW update ``w(x) ∝ w(x) * exp(eta * direction(x))``.

        Computed in log-space with a max-shift so extreme ``eta * direction``
        values cannot overflow; this matches the textbook update exactly
        because the shift cancels in normalization.
        """
        direction = check_finite_array(direction, "direction", ndim=1)
        if direction.shape != self._weights.shape:
            raise ValidationError(
                f"direction has shape {direction.shape}, expected "
                f"{self._weights.shape}"
            )
        new_weights = self._backend.multiplicative_update(
            self._weights, direction, float(eta))
        if new_weights is None:
            raise mass_annihilation_error("multiplicative update")
        return Histogram(self._universe, new_weights,
                         backend=self._backend)

    # -- distances / divergences --------------------------------------------

    def total_variation(self, other: "Histogram") -> float:
        """Total-variation distance ``(1/2)·||D - D'||_1``."""
        self._check_compatible(other)
        return 0.5 * float(np.abs(self._weights - other._weights).sum())

    def l1_distance(self, other: "Histogram") -> float:
        """``||D - D'||_1`` — adjacency of size-``n`` datasets gives ``<= 2/n``."""
        self._check_compatible(other)
        return float(np.abs(self._weights - other._weights).sum())

    def kl_divergence(self, other: "Histogram") -> float:
        """``KL(self || other)``, the potential function of the MW analysis.

        Returns ``inf`` if ``self`` puts mass where ``other`` has none.
        """
        self._check_compatible(other)
        p, q = self._weights, other._weights
        support = p > 0.0
        if np.any(q[support] == 0.0):
            return float("inf")
        log_ratio = np.log(p[support]) - np.log(q[support])
        return float(np.sum(p[support] * log_ratio))

    def _check_compatible(self, other: "Histogram") -> None:
        # Identity is the fast path; otherwise the universes must agree on
        # *content* — equal size alone is not compatibility (two different
        # domains of coincidentally equal size would make every pairwise
        # statistic silently meaningless).
        if other._universe is self._universe:
            return
        if not self._universe.same_domain(other._universe):
            raise UniverseError("histograms are over different universes")

    # -- sampling -------------------------------------------------------------

    def sample_indices(self, n: int, rng=None) -> np.ndarray:
        """Draw ``n`` iid universe indices from this distribution.

        Useful for generating synthetic datasets from the final PMW
        hypothesis (the synthetic-data remark of Section 4.3).

        Implemented by inverse-CDF sampling against a cumulative table that
        is built once per histogram and reused across calls: one vectorized
        ``searchsorted`` per draw batch, instead of ``Generator.choice``'s
        per-call probability validation and cumsum. Serving-layer
        ``synthetic_dataset`` calls hit the same (immutable) histogram
        repeatedly, which makes the amortization worthwhile; see
        ``benchmarks/bench_serve_throughput.py`` for measured numbers.
        """
        if n < 0:
            raise ValidationError(f"n must be non-negative, got {n}")
        generator = as_generator(rng)
        if self._cdf is None:
            self._cdf = self._backend.build_cdf(self._weights)
        draws = generator.random(n)
        # side="right" skips zero-weight elements (flat CDF segments) and
        # maps u in [cdf[i-1], cdf[i]) to index i — exactly choice(p=...).
        return np.searchsorted(self._cdf, draws, side="right")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Histogram(universe={self._universe.name!r}, "
            f"size={self._universe.size})"
        )
