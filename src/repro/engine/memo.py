"""Inner-solve minima shared by every mechanism over one dataset.

``min_theta l(theta; D)`` depends only on ``(loss, D, steps)``, and every
:class:`~repro.core.pmw_cm.PrivateMWConvex` session starts from the same
uniform prior ``Dhat_1``. Sessions that share a dataset and a query pool
would otherwise each solve both kinds of minima again. :func:`shared_minima`
gives each :class:`~repro.data.dataset.Dataset` object one
:class:`MinimaMemo`, held in a :class:`weakref.WeakKeyDictionary` so the
memo dies with its dataset.

Keys are tuples that name the side first:

- ``("data", steps, fingerprint)`` — a data-side minimum;
- ``("prior", backend, steps, fingerprint)`` — a cold hypothesis-side
  solve on the untouched uniform prior. The backend is in the key
  because it changes the prior's arithmetic.

Losses without a fingerprint never share. Every stored ``theta`` is
read-only, so an analyst mutating a released answer cannot change what
another session reads. Lookups and inserts hold one lock; solves run
outside it. Two sessions that miss the same key at once both solve it,
and both write the same value (each is a deterministic function of the
key and the dataset), so either write is correct. ``repro.core.theory``
explains why sharing changes no release.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

import numpy as np

from repro.obs import trace
from repro.optimize.minimize import MinimizeResult

__all__ = ["MinimaMemo", "shared_minima"]


class MinimaMemo:
    """Thread-safe LRU of :class:`MinimizeResult` values, bounded by
    ``limit`` entries across both sides."""

    def __init__(self, limit: int) -> None:
        self.limit = int(limit)
        self._entries: OrderedDict[tuple, MinimizeResult] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: tuple) -> MinimizeResult | None:
        """The entry under ``key`` (marked recently used), or ``None``;
        counted as a hit or miss for the key's side."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
        _record(key[0], hit is not None)
        return hit

    def put(self, key: tuple, result: MinimizeResult) -> MinimizeResult:
        """Store a read-only copy of ``result`` and return it."""
        theta = np.array(result.theta, dtype=float)
        theta.setflags(write=False)
        entry = MinimizeResult(theta, float(result.value), result.exact)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
        return entry


_MEMOS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_MEMOS_LOCK = threading.Lock()


def shared_minima(dataset, *, limit: int) -> MinimaMemo:
    """The one memo for ``dataset`` (keyed by object identity), made on
    first use with LRU bound ``limit``."""
    with _MEMOS_LOCK:
        memo = _MEMOS.get(dataset)
        if memo is None:
            memo = _MEMOS[dataset] = MinimaMemo(limit)
        return memo


def _record(side: str, hit: bool) -> None:
    """``solver.memo_hits`` / ``solver.memo_misses`` on the active
    tracer's registry, labelled by side."""
    tracer = trace.active()
    registry = tracer.registry if tracer is not None else None
    if registry is None:
        return
    name = "solver.memo_hits" if hit else "solver.memo_misses"
    registry.counter(name, {"side": side}).inc()
