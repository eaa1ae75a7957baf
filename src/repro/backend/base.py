"""The ``ArrayBackend`` protocol: the numeric surface of the MW hot path.

Every operation the PMW hot loop performs on universe-sized vectors —
the in-place log-weight accumulation behind ``mw_step_inplace``, the
deferred max-shift/exp/normalize materialization, the engine's
``linear_answers``/``glm_margin_matrix``/moment kernels, and the
cached-CDF inverse-sampling tables — goes through one of the methods
below. Swapping the backend swaps the arithmetic (dtype, reduction
precision) without touching the mechanism logic above it.

Contract
--------

- :class:`~repro.backend.numpy_backend.NumpyBackend` is the default and
  is **bitwise-identical** to the pre-protocol code: its methods are the
  exact expressions the data/engine layers used to inline, so every
  oracle, chaos suite, and golden file keeps passing unmodified.
- Every other registered backend must agree with ``NumpyBackend`` to
  ``<= 1e-6`` on MW steps, margins, moments, and sampling tables (pinned
  by ``tests/property/test_backend_agreement.py``).
- **Durable formats are backend-independent**: snapshots, checkpoints,
  and shared-memory segments always hold NumPy ``float64``. Backends
  convert at that boundary via :meth:`ArrayBackend.to_float64` /
  :meth:`ArrayBackend.from_float64`; widening an accelerated dtype to
  ``float64`` is exact, so a hypothesis trained on any backend restores
  bitwise into any other.

The MW methods act on whole universe-sized vectors: backends supply
the arithmetic, :class:`~repro.data.log_histogram.LogHistogram` owns
the buffers and the order of the passes.

Mass annihilation (an update that zeroes every weight) is signalled by
returning a sentinel (``None`` from :meth:`multiplicative_update`, a
non-finite shift from the max passes); the histogram layer owns the
typed ``ValidationError`` so backends stay dependency-free.
"""

from __future__ import annotations

import numpy as np


def _restore_backend(name: str):
    """Unpickle hook: re-resolve a backend by name on the receiving side.

    Backends are stateless singletons; shipping the *name* keeps shard
    specs and dataset pickles working for every backend, out-of-tree
    ones included, and preserves the one-instance-per-name invariant
    across process boundaries.
    """
    from repro.backend.registry import get_backend

    return get_backend(name)


class ArrayBackend:
    """Abstract numeric backend. See the module docstring for the contract.

    Implementations are stateless and cached as singletons by the
    registry; all methods must be thread-safe (sessions on a service's
    worker pool share one instance).
    """

    #: Registry name (``"numpy"``, ``"float32"``, ...).
    name: str = "abstract"

    #: Native dtype of hot-path arrays this backend produces.
    dtype = np.float64

    # -- conversion / allocation -------------------------------------------

    def asarray(self, values):
        """``values`` as a native-dtype array (no copy when already native)."""
        raise NotImplementedError

    def to_float64(self, values) -> np.ndarray:
        """Durable-format boundary: ``values`` as NumPy ``float64``."""
        raise NotImplementedError

    def from_float64(self, values):
        """Native representation of durable ``float64`` state."""
        raise NotImplementedError

    def empty_like(self, values):
        """Uninitialized native array with ``values``' shape."""
        raise NotImplementedError

    def log_uniform(self, size: int):
        """Log-weights of the uniform distribution: ``-log(size)`` each."""
        raise NotImplementedError

    # -- MW hot loop: in-place log-domain passes ----------------------------

    def accumulate(self, log_weights, direction, eta: float,
                   scratch) -> None:
        """``log_weights += eta * direction`` via ``scratch``."""
        raise NotImplementedError

    def max_finite(self, values) -> float:
        """Max finite entry of ``values`` (``-inf`` when none)."""
        raise NotImplementedError

    def exp_shifted(self, values, shift: float, out) -> None:
        """``out = exp(values - shift)`` (in place when ``values is
        out``)."""
        raise NotImplementedError

    def total_mass(self, values) -> float:
        """Full-vector sum, accumulated at ``float64`` fidelity."""
        raise NotImplementedError

    def normalize(self, values, total: float) -> None:
        """``values /= total`` in place."""
        raise NotImplementedError

    # -- dense immutable MW step -------------------------------------------

    def multiplicative_update(self, weights, direction, eta: float):
        """Unnormalized ``w * exp(eta * direction)`` with max-shift, or
        ``None`` when the update annihilated all mass."""
        raise NotImplementedError

    # -- engine kernels -----------------------------------------------------

    def dot(self, values, weights) -> float:
        """Scalar ``<values, weights>``."""
        raise NotImplementedError

    def matvec(self, tables, weights):
        """``tables @ weights`` (query-table rows against a hypothesis)."""
        raise NotImplementedError

    def matmul(self, points, parameters):
        """``points @ parameters`` — the blocked GLM margin kernel."""
        raise NotImplementedError

    def second_moment(self, features, weights):
        """``E[x xᵀ] = Xᵀ diag(w) X`` under the distribution ``weights``."""
        raise NotImplementedError

    def cross_moment(self, features, weights, labels):
        """``E[y x] = Xᵀ (w ⊙ y)`` under the distribution ``weights``."""
        raise NotImplementedError

    # -- cached-CDF inverse sampling ---------------------------------------

    def build_cdf(self, weights) -> np.ndarray:
        """Read-only monotone CDF over ``weights``, closed to exactly 1.0
        at the last nonzero entry; always ``float64`` so ``searchsorted``
        against uniform ``float64`` draws never aliases bins."""
        raise NotImplementedError

    def __reduce__(self):
        return (_restore_backend, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


__all__ = ["ArrayBackend"]
