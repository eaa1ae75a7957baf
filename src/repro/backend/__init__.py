"""Pluggable numeric backends for the MW hot path.

``repro.backend`` abstracts every universe-sized numeric operation the
PMW reproduction performs — in-place log-weight accumulation, deferred
normalization, the engine's linear/GLM/moment kernels, and cached-CDF
inverse sampling — behind the :class:`ArrayBackend` protocol:

- :class:`NumpyBackend` (``"numpy"``): the ``float64`` default,
  bitwise-identical to the historical inline code;
- :class:`Float32Backend` (``"float32"``): SIMD-friendly ``float32``
  arithmetic with ``float64``-accumulated normalizers and CDFs.

Select per mechanism (``PrivateMWConvex(..., backend="float32")``), per
service (``PMWService(..., backend=...)``), per shard fleet
(``ShardedService(..., backend=...)``), or process-wide via the
``REPRO_BACKEND`` environment variable. Durable formats (snapshots,
checkpoints, shared-memory segments) stay NumPy ``float64`` regardless
of backend; see :mod:`repro.backend.base` for the full contract.
"""

from repro.backend.base import ArrayBackend
from repro.backend.numpy_backend import Float32Backend, NumpyBackend
from repro.backend.registry import (
    DEFAULT_BACKEND,
    ENV_VAR,
    available_backends,
    backend_of,
    get_backend,
    register_backend,
    resolve_backend,
)

__all__ = [
    "ArrayBackend",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "Float32Backend",
    "NumpyBackend",
    "available_backends",
    "backend_of",
    "get_backend",
    "register_backend",
    "resolve_backend",
]
