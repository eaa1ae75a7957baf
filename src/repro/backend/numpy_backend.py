"""NumPy backends: the bitwise-default ``float64`` path and a ``float32``
SIMD-friendly variant.

:class:`NumpyBackend` is a pure extraction — every method body is the
exact expression the data/engine layers inlined before the protocol
existed, so running it is bitwise-identical to the pre-refactor code
(the acceptance bar for the default backend).

:class:`Float32Backend` reuses the same expressions at ``float32``:
half the memory traffic on every universe-sized pass and twice the SIMD
lane width, which is where the speedup on large ``|X|`` comes from.
Reductions that feed normalizers and sampling tables (:meth:`total_mass`,
:meth:`build_cdf`) accumulate in ``float64`` — a
``float32`` cumsum over ``|X| = 10^6`` entries drifts to ``~1e-4``,
well past the ``1e-6`` agreement contract, while per-element arithmetic
stays comfortably inside it. The squared-family moments
(:meth:`second_moment`, :meth:`cross_moment`) run in ``float64`` too:
in ``float32`` a moment of size ~3 already errs by ``~1e-6``, so only
the weights' ``float32`` storage rounds there.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend


class NumpyBackend(ArrayBackend):
    """The default ``float64`` backend (bitwise the historical code path).

    The class is written dtype-generically — every expression reads its
    working dtype from the arrays themselves — so :class:`Float32Backend`
    only overrides allocation dtype and the ``float64``-accumulated
    reductions.
    """

    name = "numpy"
    dtype = np.float64

    # -- conversion / allocation -------------------------------------------

    def asarray(self, values):
        return np.asarray(values, dtype=self.dtype)

    def to_float64(self, values) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)

    def from_float64(self, values):
        return self.asarray(values)

    def empty_like(self, values):
        return np.empty_like(values)

    def log_uniform(self, size: int):
        return np.full(size, -np.log(size), dtype=self.dtype)

    # -- MW hot loop: in-place log-domain passes ----------------------------

    def accumulate(self, log_weights, direction, eta: float,
                   scratch) -> None:
        np.multiply(direction, eta, out=scratch)
        log_weights += scratch

    def max_finite(self, values) -> float:
        finite = values[np.isfinite(values)]
        return float(np.max(finite)) if finite.size else float("-inf")

    def exp_shifted(self, values, shift: float, out) -> None:
        np.subtract(values, shift, out=out)
        np.exp(out, out=out)

    def total_mass(self, values) -> float:
        # Full-vector pairwise sum — the normalizer every histogram
        # constructor computes, keeping the log and immutable paths aligned.
        return float(values.sum())

    def normalize(self, values, total: float) -> None:
        values /= total

    # -- dense immutable MW step -------------------------------------------

    def multiplicative_update(self, weights, direction, eta: float):
        weights = self.asarray(weights)
        direction = self.asarray(direction)
        with np.errstate(divide="ignore"):
            log_weights = np.log(weights)
        log_weights = log_weights + float(eta) * direction
        finite = log_weights[np.isfinite(log_weights)]
        if finite.size == 0:
            return None
        log_weights -= np.max(finite)
        new_weights = np.exp(log_weights)
        new_weights[~np.isfinite(new_weights)] = 0.0
        return new_weights

    # -- engine kernels -----------------------------------------------------

    def dot(self, values, weights) -> float:
        return float(self.asarray(values) @ self.asarray(weights))

    def matvec(self, tables, weights):
        return self.asarray(tables) @ self.asarray(weights)

    def matmul(self, points, parameters):
        return self.asarray(points) @ self.asarray(parameters)

    def second_moment(self, features, weights):
        # Lazy import: repro.losses sits above the data layer, which
        # imports this package at module load.
        from repro.losses.squared import weighted_second_moment

        return weighted_second_moment(self.asarray(features),
                                      self.asarray(weights))

    def cross_moment(self, features, weights, labels):
        from repro.losses.squared import weighted_cross_moment

        return weighted_cross_moment(self.asarray(features),
                                     self.asarray(weights),
                                     self.asarray(labels))

    # -- cached-CDF inverse sampling ---------------------------------------

    def build_cdf(self, weights) -> np.ndarray:
        cdf = np.cumsum(weights)
        # Close the floating-point cumsum gap at the last *nonzero*
        # weight, so trailing zero-weight elements stay impossible.
        last_support = int(np.nonzero(weights)[0][-1])
        cdf[last_support:] = 1.0
        cdf.setflags(write=False)
        return cdf


class Float32Backend(NumpyBackend):
    """``float32`` storage and arithmetic, ``float64`` accumulation.

    See the module docstring for which reductions stay ``float64`` and
    why. Durable state still crosses the snapshot boundary as exact
    ``float64`` (widening a ``float32`` is lossless), so a hypothesis
    trained here restores bitwise into :class:`NumpyBackend`.
    """

    name = "float32"
    dtype = np.float32

    def total_mass(self, values) -> float:
        return float(values.sum(dtype=np.float64))

    def build_cdf(self, weights) -> np.ndarray:
        cdf = np.cumsum(weights, dtype=np.float64)
        last_support = int(np.nonzero(weights)[0][-1])
        cdf[last_support:] = 1.0
        cdf.setflags(write=False)
        return cdf

    def second_moment(self, features, weights):
        from repro.losses.squared import weighted_second_moment

        return weighted_second_moment(np.asarray(features, np.float64),
                                      np.asarray(weights, np.float64))

    def cross_moment(self, features, weights, labels):
        from repro.losses.squared import weighted_cross_moment

        return weighted_cross_moment(np.asarray(features, np.float64),
                                     np.asarray(weights, np.float64),
                                     np.asarray(labels, np.float64))


__all__ = ["Float32Backend", "NumpyBackend"]
