"""`repro.engine` — the batched query-evaluation engine.

The mechanisms in :mod:`repro.core` were written query-at-a-time: each
round evaluates one loss over the whole universe, and a ``k``-query
workload pays ``k`` full passes even when the queries share almost all of
their structure. This package is the batch counterpart — the hot paths
the ROADMAP's "fast as the hardware allows" north star targets:

- :mod:`repro.engine.kernels` — per-family vectorized kernels: the
  loss-matrix layout for linear queries (one matvec answers the whole
  batch), the margin-matrix layout for GLM losses (one ``|X|×d @ d×B``
  matmul replaces ``B`` per-query feature products), and shared moment
  kernels for squared-family closed forms.
- :mod:`repro.engine.batch` — :func:`compile_batch` groups a
  heterogeneous batch by kernel family; :func:`batch_answers` and
  :func:`batch_loss_on` evaluate it in one vectorized pass per family.
  :func:`batch_data_minima` solves closed forms through shared moments
  and every other GLM over an L2 ball, across link families, in one
  lockstep projected-subgradient run
  (:func:`repro.optimize.lockstep.lockstep_minimize`: one margin matrix
  per step feeds every column's value and gradient). Anything no kernel
  handles falls back to the scalar path.
- :mod:`repro.engine.versioned` — :class:`VersionedBatchEvaluator` keeps
  per-entry version stamps against an evolving hypothesis core, so only
  stale answers recompute across MW updates (plus a combined
  update-then-evaluate call for whole-batch consumers).
- :mod:`repro.engine.memo` — :func:`shared_minima` gives each dataset
  one thread-safe memo of inner-solve minima (data side, and cold solves
  on the uniform prior) that every mechanism over it shares.

Consumers: :class:`~repro.core.pmw_cm.PrivateMWConvex` pre-warms the
data-side minima in its record table through :func:`batch_data_minima`, and
batches a lane's hypothesis-side minima through it too (closed forms at
any time, lockstep GLMs once the mechanism has halted);
:class:`~repro.core.pmw_linear.PrivateMWLinear` answers whole streams
through the loss-matrix layout (recomputing only the suffix after each MW
update); the serving layer's batch planner hands mechanism lanes to the
engine before executing them, and the serving gateway
(:mod:`repro.serve.gateway`) coalesces queued concurrent requests into
exactly such lanes — sustained load converts into batched kernel work.

Agreement with the scalar path is a contract, not an accident: every
kernel computes the same quantity through a reassociated product, and
``tests/property/test_batch_agreement.py`` pins batched-vs-scalar
divergence below ``1e-10``. ``benchmarks/bench_batch_engine.py`` measures
the speedups (≥3x on a 64-query GLM batch is the regression bar).
"""

from repro.engine.batch import (
    CompiledBatch,
    batch_answers,
    batch_data_minima,
    batch_loss_on,
    closed_form_minima,
    compile_batch,
    dedupe_by_fingerprint,
)
from repro.engine.versioned import VersionedBatchEvaluator
from repro.engine import kernels

__all__ = [
    "CompiledBatch",
    "compile_batch",
    "batch_answers",
    "batch_loss_on",
    "batch_data_minima",
    "closed_form_minima",
    "dedupe_by_fingerprint",
    "VersionedBatchEvaluator",
    "kernels",
]
