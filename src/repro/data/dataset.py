"""Datasets over a finite universe, with adjacency helpers.

A :class:`Dataset` stores ``n`` rows as indices into a :class:`Universe`.
This index representation makes the histogram conversion exact and makes the
adjacency relation ``D ~ D'`` ("differ in one row", Section 2.1) a trivial
single-index edit, which the privacy test-suite exercises heavily.
"""

from __future__ import annotations

import numpy as np

from repro.data.histogram import Histogram
from repro.data.universe import Universe
from repro.exceptions import UniverseError, ValidationError
from repro.utils.rng import as_generator


class Dataset:
    """An ordered multiset of ``n`` universe elements.

    Parameters
    ----------
    universe:
        The finite universe the rows come from.
    indices:
        Integer array of shape ``(n,)``; row ``i`` is universe element
        ``indices[i]``.
    """

    def __init__(self, universe: Universe, indices: np.ndarray) -> None:
        indices = np.asarray(indices)
        if indices.ndim != 1:
            raise ValidationError(
                f"indices must be 1-dimensional, got shape {indices.shape}"
            )
        if indices.size == 0:
            raise ValidationError("a dataset must contain at least one row")
        if not np.issubdtype(indices.dtype, np.integer):
            rounded = np.rint(indices)
            if not np.allclose(indices, rounded):
                raise ValidationError("indices must be integers")
            indices = rounded.astype(np.int64)
        indices = indices.astype(np.int64, copy=True)
        if indices.min() < 0 or indices.max() >= universe.size:
            raise UniverseError(
                f"dataset indices must lie in [0, {universe.size}); "
                f"got range [{indices.min()}, {indices.max()}]"
            )
        self._universe = universe
        self._indices = indices
        self._indices.setflags(write=False)
        self._frozen_histogram: Histogram | None = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_indices(cls, universe: Universe, indices) -> "Dataset":
        """Build from an iterable of universe indices."""
        return cls(universe, np.asarray(list(indices)))

    @classmethod
    def _adopt(cls, universe: Universe, indices: np.ndarray, *,
               frozen_histogram: Histogram | None = None) -> "Dataset":
        """Wrap already-validated int64 indices without copying.

        The public constructor copies (``astype(copy=True)``) and
        range-checks; internal producers with trusted, immutable
        storage — the shared-memory attach path
        (:func:`repro.data.shm.attach_datasets`) — adopt their views in
        place, optionally with a precomputed frozen histogram so
        :meth:`histogram` never rebuilds what the producer already
        materialized.
        """
        instance = cls.__new__(cls)
        indices.setflags(write=False)
        instance._universe = universe
        instance._indices = indices
        instance._frozen_histogram = frozen_histogram
        return instance

    @classmethod
    def uniform_random(cls, universe: Universe, n: int, rng=None) -> "Dataset":
        """Sample ``n`` rows uniformly from the universe."""
        generator = as_generator(rng)
        return cls(universe, generator.integers(0, universe.size, size=n))

    def copy(self) -> "Dataset":
        """An equal-content dataset that shares nothing with this one.

        Mechanisms over one ``Dataset`` object share their inner-solve
        minima (:mod:`repro.engine.memo`); a copy starts with none, as
        a separate deployment would.
        """
        return Dataset(self._universe, self._indices)

    # -- accessors ---------------------------------------------------------

    @property
    def universe(self) -> Universe:
        """The underlying universe."""
        return self._universe

    @property
    def indices(self) -> np.ndarray:
        """Row indices into the universe (read-only)."""
        return self._indices

    @property
    def n(self) -> int:
        """Number of rows."""
        return self._indices.shape[0]

    def __len__(self) -> int:
        return self.n

    @property
    def points(self) -> np.ndarray:
        """Feature matrix of shape ``(n, dim)`` (materialized view)."""
        return self._universe.points[self._indices]

    @property
    def labels(self) -> np.ndarray | None:
        """Label vector of shape ``(n,)`` or ``None`` if unlabeled."""
        if self._universe.labels is None:
            return None
        return self._universe.labels[self._indices]

    # -- histogram & adjacency ----------------------------------------------

    def histogram(self) -> Histogram:
        """The normalized histogram representation of this dataset.

        Datasets attached from shared memory carry a frozen,
        pre-normalized histogram view and return it directly (the
        weights are a zero-copy view of the supervisor's segment);
        everything else recomputes from counts.
        """
        if self._frozen_histogram is not None:
            return self._frozen_histogram
        counts = np.bincount(self._indices, minlength=self._universe.size)
        return Histogram.from_counts(self._universe, counts)

    def replace_row(self, row: int, new_index: int) -> "Dataset":
        """Return the adjacent dataset with ``row`` replaced by ``new_index``.

        The result ``D'`` satisfies ``D ~ D'`` and their histograms differ
        by at most ``2/n`` in L1 (``1/n`` per changed cell).
        """
        if not 0 <= row < self.n:
            raise ValidationError(f"row {row} out of range [0, {self.n})")
        indices = np.array(self._indices)
        indices[row] = new_index
        return Dataset(self._universe, indices)

    def random_neighbor(self, rng=None) -> "Dataset":
        """A uniformly random adjacent dataset (for privacy testing)."""
        generator = as_generator(rng)
        row = int(generator.integers(0, self.n))
        new_index = int(generator.integers(0, self._universe.size))
        return self.replace_row(row, new_index)

    def is_adjacent(self, other: "Dataset") -> bool:
        """Whether ``self ~ other`` (same size, differ in at most one row)."""
        if other.n != self.n or other.universe.size != self._universe.size:
            return False
        return int(np.sum(self._indices != other._indices)) <= 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dataset(n={self.n}, universe={self._universe.name!r}, "
            f"dim={self._universe.dim})"
        )
