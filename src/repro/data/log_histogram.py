"""Version-stamped, log-domain hypothesis accumulator.

The immutable :class:`~repro.data.histogram.Histogram` makes every MW
update pay full price: a fresh ``log`` pass over the whole universe, a
max-shift, an ``exp``, a normalization, and several universe-sized
temporaries — then throws the cached sampling CDF away with the old
object. The PMW hot loop applies those updates *in sequence to one
evolving hypothesis*, which admits a much cheaper representation:

- keep the hypothesis in **log-space** (``log_weights``), where the MW
  update ``w(x) ∝ w(x) · exp(eta · u(x))`` is a single in-place
  ``log_weights += eta · u`` — no transcendentals, no fresh allocation;
- **defer normalization**: in log-space the per-round normalizer is an
  additive constant that cancels against the next update, so it only
  needs to be computed when a ``dot``/``sample``/``freeze`` actually
  reads probabilities (and then once per version, shared by every
  reader);
- stamp the state with a monotone **version** counter, bumped once per
  update, so every downstream cache — solver warm-starts, per-round
  breakdowns, compiled-batch answers, the serving layer's answer cache —
  can key on ``(work, version)`` and skip recomputation whenever the
  hypothesis has not moved.

:meth:`freeze` materializes the current version as a regular (immutable)
:class:`Histogram`, agreeing with the chain of per-round immutable
updates to floating-point reassociation (``<= 1e-10``; pinned by
``tests/property/test_log_domain_agreement.py``). Frozen views are
cached per version and stay valid forever: once a buffer escapes through
``freeze()`` the next materialization writes a fresh one.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, resolve_backend
from repro.data.histogram import Histogram, mass_annihilation_error
from repro.data.universe import Universe
from repro.exceptions import ValidationError
from repro.utils.validation import check_finite_array


class LogHistogram:
    """A mutable probability vector kept in log-space, stamped by version.

    Parameters
    ----------
    universe:
        The underlying :class:`Universe`.
    weights:
        Optional initial (unnormalized) weights, validated exactly like
        the :class:`Histogram` constructor. ``None`` starts uniform —
        PMW's ``Dhat_1`` — without materializing an intermediate
        histogram.
    backend:
        The :class:`~repro.backend.base.ArrayBackend` (or its registry
        name) running the hot passes; ``None`` resolves via
        ``REPRO_BACKEND`` to the bitwise-default NumPy backend.
        :meth:`state_dict` output is ``float64`` regardless of backend.
    """

    def __init__(self, universe: Universe, weights: np.ndarray | None = None,
                 *, backend: str | ArrayBackend | None = None) -> None:
        self._setup(universe, backend=backend)
        if weights is None:
            self._log_weights = self._backend.log_uniform(universe.size)
        else:
            # Route validation + normalization through the canonical
            # constructor so the accepted inputs are exactly the
            # Histogram contract. The log runs at float64 and converts
            # once at the end, so every backend starts from the same
            # distribution.
            base = Histogram(universe, np.asarray(weights, dtype=float))
            with np.errstate(divide="ignore"):
                log_weights = np.log(base.weights)
            self._log_weights = self._backend.from_float64(log_weights)

    def _setup(self, universe: Universe, *,
               backend: str | ArrayBackend | None) -> None:
        self._backend = resolve_backend(backend)
        self._universe = universe
        self._version = 0
        self._scratch: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._weights_version = -1
        self._weights_escaped = False
        self._frozen: Histogram | None = None
        self._frozen_version = -1

    # -- constructors -----------------------------------------------------

    @classmethod
    def uniform(cls, universe: Universe) -> "LogHistogram":
        """The uniform accumulator (PMW's ``Dhat_1``) at version 0."""
        return cls(universe)

    @classmethod
    def from_histogram(cls, histogram: Histogram) -> "LogHistogram":
        """Adopt an existing histogram's distribution at version 0."""
        return cls(histogram.universe, histogram.weights)

    # -- accessors ---------------------------------------------------------

    @property
    def universe(self) -> Universe:
        """The underlying universe."""
        return self._universe

    @property
    def version(self) -> int:
        """Monotone update counter; bumped once per :meth:`apply_update`.

        Two reads at equal version see the identical distribution, which
        is the invariant every version-keyed cache relies on.
        """
        return self._version

    @property
    def backend(self) -> ArrayBackend:
        """The numeric backend running the hot passes."""
        return self._backend

    def __len__(self) -> int:
        return self._universe.size

    # -- the in-place MW accumulation ---------------------------------------

    def apply_update(self, direction: np.ndarray, eta: float) -> int:
        """Accumulate ``log w(x) += eta * direction(x)`` in place.

        This *is* the MW update — normalization is deferred because in
        log-space it is an additive constant that the next update's
        normalizer absorbs; it is applied lazily (once per version) when
        probabilities are actually read. No allocation happens after the
        first call: the ``eta * direction`` product lands in a reusable
        scratch buffer.

        Returns the new version.
        """
        direction = check_finite_array(direction, "direction", ndim=1)
        if direction.shape != self._log_weights.shape:
            raise ValidationError(
                f"direction has shape {direction.shape}, expected "
                f"{self._log_weights.shape}"
            )
        eta = float(eta)
        if not np.isfinite(eta):
            raise ValidationError(f"eta must be finite, got {eta}")
        backend = self._backend
        if self._scratch is None:
            self._scratch = backend.empty_like(self._log_weights)
        backend.accumulate(self._log_weights, backend.asarray(direction),
                           eta, self._scratch)
        self._version += 1
        return self._version

    # -- lazy materialization ------------------------------------------------

    @property
    def weights(self) -> np.ndarray:
        """The normalized probability vector at the current version.

        Materialized lazily (max-shift, ``exp``, one normalization) and
        cached until the next update; successive reads at the same
        version are free. The returned array is a borrowed buffer —
        valid until the next :meth:`apply_update` unless obtained via
        :meth:`freeze`, which pins it permanently.
        """
        if self._weights_version != self._version:
            self._materialize()
        return self._weights

    def _materialize(self) -> None:
        backend = self._backend
        if self._weights is None or self._weights_escaped:
            self._weights = backend.empty_like(self._log_weights)
            self._weights_escaped = False
        log_weights, out = self._log_weights, self._weights

        shift = backend.max_finite(log_weights)
        if not np.isfinite(shift):
            raise mass_annihilation_error("log-domain hypothesis")

        backend.exp_shifted(log_weights, shift, out)
        # Full-vector pairwise sum — the same normalizer the immutable
        # constructors compute, keeping the log and immutable paths aligned.
        total = backend.total_mass(out)
        if not (np.isfinite(total) and total > 0.0):
            raise ValidationError(
                "log-domain hypothesis produced a non-finite normalizer; "
                "an accumulated update overflowed"
            )
        backend.normalize(out, total)
        self._weights_version = self._version

    def freeze(self) -> Histogram:
        """An immutable histogram view of the current version.

        Cached per version: repeated freezes between updates return the
        same object (so its lazily built sampling CDF is shared too).
        The view stays valid after further updates — the buffer it
        adopted is marked escaped and the next materialization writes a
        fresh one.
        """
        if self._frozen_version == self._version:
            return self._frozen
        weights = self.weights
        self._weights_escaped = True
        frozen = Histogram._adopt_normalized(self._universe, weights,
                                             backend=self._backend)
        self._frozen = frozen
        self._frozen_version = self._version
        return frozen

    # -- reads ---------------------------------------------------------------

    def dot(self, values: np.ndarray) -> float:
        """``<values, Dhat>`` at the current version."""
        values = np.asarray(values, dtype=float)
        weights = self.weights
        if values.shape != weights.shape:
            raise ValidationError(
                f"values has shape {values.shape}, expected {weights.shape}"
            )
        return self._backend.dot(values, weights)

    def sample_indices(self, n: int, rng=None) -> np.ndarray:
        """Draw ``n`` iid universe indices from the current version.

        Delegates to the frozen view, whose inverse-CDF table is built
        once per version and shared by every caller.
        """
        return self.freeze().sample_indices(n, rng=rng)

    def kl_divergence(self, other: Histogram) -> float:
        """``KL(Dhat || other)`` at the current version."""
        return self.freeze().kl_divergence(other)

    def total_variation(self, other: Histogram) -> float:
        """Total-variation distance at the current version."""
        return self.freeze().total_variation(other)

    def l1_distance(self, other: Histogram) -> float:
        """``||Dhat - other||_1`` at the current version."""
        return self.freeze().l1_distance(other)

    # -- snapshot / restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable state: raw log-weights plus the version.

        The *pre-normalization* log-weights are stored, so a restored
        accumulator continues bitwise-identically to one that was never
        snapshotted (normalized weights alone would lose the deferred
        state). ``-inf`` entries (zero-weight elements) survive the JSON
        round trip as ``-Infinity`` literals.

        The durable format is backend-independent: log-weights cross
        this boundary as exact ``float64`` (widening an accelerated
        dtype is lossless), so a hypothesis trained on any backend
        restores bitwise into any other.
        """
        return {
            "version": self._version,
            "log_weights": self._backend.to_float64(
                self._log_weights).tolist(),
        }

    @classmethod
    def from_state(cls, universe: Universe, state: dict, *,
                   backend: str | ArrayBackend | None = None,
                   ) -> "LogHistogram":
        """Rebuild an accumulator from :meth:`state_dict` output.

        ``backend`` selects the backend the restored accumulator runs
        on — independent of the one that produced the state, because the
        stored log-weights are plain ``float64``. States written while
        the hypothesis could be sharded may carry shard-layout keys;
        they never affected the stored log-weights and are ignored.
        """
        core = cls.__new__(cls)
        core._setup(universe, backend=backend)
        log_weights = np.asarray(state["log_weights"], dtype=float)
        if log_weights.ndim != 1 or log_weights.shape[0] != universe.size:
            raise ValidationError(
                f"log_weights has shape {log_weights.shape}; universe has "
                f"{universe.size} elements"
            )
        if np.any(np.isnan(log_weights)) or np.any(log_weights == np.inf):
            raise ValidationError(
                "log_weights must be finite or -inf (zero weight)"
            )
        core._log_weights = core._backend.from_float64(log_weights)
        core._version = int(state["version"])
        if core._version < 0:
            raise ValidationError(
                f"version must be non-negative, got {core._version}"
            )
        return core

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LogHistogram(universe={self._universe.name!r}, "
            f"size={self._universe.size}, version={self._version}, "
            f"backend={self._backend.name!r})"
        )


__all__ = ["LogHistogram"]
