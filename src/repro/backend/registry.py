"""Backend registry: name-keyed construction plus ``REPRO_BACKEND``.

Backends are stateless, so the registry caches one instance per name.
Selection precedence, everywhere a ``backend=`` knob exists (mechanism
constructors, ``PMWService``, shard specs, the CLI):

1. an explicit :class:`~repro.backend.base.ArrayBackend` instance;
2. an explicit name (``"numpy"``, ``"float32"``);
3. ``None`` → the ``REPRO_BACKEND`` environment variable, read at
   resolution time so ``repro-experiments --backend`` and CI matrices
   can steer whole processes;
4. the ``"numpy"`` default.

Unknown names, and registered backends whose factory reports them
unavailable on this host, raise a typed ``ValidationError`` at
resolution time — a sharded service spawning accelerated workers fails
at spawn, not after the first query.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.backend.base import ArrayBackend
from repro.backend.numpy_backend import Float32Backend, NumpyBackend
from repro.exceptions import ValidationError

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_BACKEND"

#: The always-available default backend name.
DEFAULT_BACKEND = "numpy"


_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {
    "numpy": NumpyBackend,
    "float32": Float32Backend,
}
_INSTANCES: dict[str, ArrayBackend] = {}


def register_backend(name: str,
                     factory: Callable[[], ArrayBackend]) -> None:
    """Register (or replace) a backend factory under ``name``.

    The extension point for out-of-tree backends; the factory may raise
    ``ValidationError`` to report itself unavailable on this host.
    """
    _FACTORIES[str(name)] = factory
    _INSTANCES.pop(str(name), None)


def get_backend(name: str) -> ArrayBackend:
    """The cached backend instance registered under ``name``."""
    name = str(name)
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValidationError(
            f"unknown backend {name!r}; registered: {sorted(_FACTORIES)}"
        )
    instance = factory()
    _INSTANCES[name] = instance
    return instance


def resolve_backend(spec=None) -> ArrayBackend:
    """Resolve a backend spec: an instance, a name, or ``None``.

    ``None`` consults ``REPRO_BACKEND`` and falls back to ``"numpy"``
    (see the module docstring for the full precedence).
    """
    if isinstance(spec, ArrayBackend):
        return spec
    if spec is None:
        spec = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    if not isinstance(spec, str):
        raise ValidationError(
            f"backend must be an ArrayBackend instance, a name, or None; "
            f"got {type(spec).__name__}"
        )
    return get_backend(spec)


def available_backends() -> list[str]:
    """Names of registered backends that construct on this host."""
    names = []
    for name in sorted(_FACTORIES):
        try:
            get_backend(name)
        except ValidationError:
            continue
        names.append(name)
    return names


def backend_of(histogram) -> ArrayBackend:
    """The backend carried by a histogram-like object (NumPy default).

    Engine kernels use this to follow whatever arithmetic produced the
    hypothesis they are evaluating against; plain objects without a
    ``backend`` attribute get the bitwise default.
    """
    backend = getattr(histogram, "backend", None)
    if isinstance(backend, ArrayBackend):
        return backend
    return get_backend(DEFAULT_BACKEND)


__all__ = [
    "DEFAULT_BACKEND", "ENV_VAR", "available_backends", "backend_of",
    "get_backend", "register_backend", "resolve_backend",
]
