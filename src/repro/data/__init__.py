"""Data substrate: finite universes, datasets, histograms, synthetic workloads.

The paper (Sections 2.1 and 4.3) works in the finite-universe model: the
dataset ``D`` is a multiset of elements of a finite universe ``X``, and the
mechanism represents ``D`` by its normalized histogram, a probability vector
indexed by ``X``. This package provides:

- :class:`Universe` — an enumerated universe of points in ``R^d`` with
  optional labels (for supervised losses).
- :class:`Histogram` — a probability vector over a :class:`Universe` with
  the multiplicative-weights update as a first-class operation.
- :class:`LogHistogram` — the version-stamped log-domain accumulator the
  mechanisms' hot loop mutates in place (``log w += eta·u`` with deferred
  normalization); :meth:`~LogHistogram.freeze` yields immutable views.
- :class:`Dataset` — an ``n``-row dataset of universe elements, with
  adjacency (``D ~ D'``) helpers used by privacy tests.
- builders for standard universes (binary cube, ball nets, labeled grids).
- synthetic workload generators mirroring the paper's motivating examples
  (linear/logistic regression data).
- discretization of continuous data onto a finite universe (the rounding
  argument of Section 1.1).
"""

from repro.data.universe import Universe
from repro.data.histogram import Histogram
from repro.data.log_histogram import LogHistogram
from repro.data.dataset import Dataset
from repro.data.builders import (
    ball_grid,
    binary_cube,
    interval_grid,
    labeled_universe,
    random_ball_net,
    signed_cube,
)
from repro.data.synthetic import (
    make_classification_dataset,
    make_regression_dataset,
    sample_dataset,
)
from repro.data.discretize import discretize_points, discretization_error
from repro.data.io import (
    load_dataset,
    load_histogram,
    load_universe,
    save_dataset,
    save_histogram,
    save_universe,
)

__all__ = [
    "Universe",
    "Histogram",
    "LogHistogram",
    "Dataset",
    "binary_cube",
    "ball_grid",
    "signed_cube",
    "interval_grid",
    "labeled_universe",
    "random_ball_net",
    "make_regression_dataset",
    "make_classification_dataset",
    "sample_dataset",
    "discretize_points",
    "discretization_error",
    "save_universe",
    "load_universe",
    "save_histogram",
    "load_histogram",
    "save_dataset",
    "load_dataset",
]
