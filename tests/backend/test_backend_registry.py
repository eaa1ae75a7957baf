"""Registry semantics: precedence, env var, pickling, extension point."""

import pickle

import numpy as np
import pytest

from repro.backend import (
    DEFAULT_BACKEND,
    ENV_VAR,
    ArrayBackend,
    Float32Backend,
    NumpyBackend,
    available_backends,
    backend_of,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backend.registry import _FACTORIES, _INSTANCES
from repro.data.histogram import Histogram
from repro.data.universe import Universe
from repro.exceptions import ValidationError


class TestResolutionPrecedence:
    def test_instance_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "float32")
        instance = get_backend("numpy")
        assert resolve_backend(instance) is instance

    def test_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "float32")
        assert resolve_backend("numpy").name == "numpy"

    def test_none_reads_env_at_resolution_time(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend(None).name == DEFAULT_BACKEND
        monkeypatch.setenv(ENV_VAR, "float32")
        assert resolve_backend(None).name == "float32"

    def test_empty_env_means_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "")
        assert resolve_backend(None).name == DEFAULT_BACKEND

    def test_unknown_name_is_typed(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            get_backend("cuda")

    def test_non_string_spec_is_typed(self):
        with pytest.raises(ValidationError, match="ArrayBackend"):
            resolve_backend(3.14)

    def test_env_with_unknown_name_fails_at_resolution(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "not-a-backend")
        with pytest.raises(ValidationError, match="unknown backend"):
            resolve_backend(None)


class TestRegistryShape:
    def test_singletons_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("float32") is get_backend("float32")

    def test_default_backends_always_available(self):
        names = available_backends()
        assert "numpy" in names
        assert "float32" in names

    def test_unavailable_backend_is_gated(self):
        def unavailable():
            raise ValidationError("accelerator not installed")

        register_backend("absent", unavailable)
        try:
            assert "absent" not in available_backends()
            with pytest.raises(ValidationError, match="not installed"):
                get_backend("absent")
        finally:
            _FACTORIES.pop("absent", None)
            _INSTANCES.pop("absent", None)

    def test_dtypes(self):
        assert np.dtype(get_backend("numpy").dtype) == np.float64
        assert np.dtype(get_backend("float32").dtype) == np.float32

    def test_pickle_round_trips_to_the_singleton(self):
        # Backends cross the shard process boundary by *name*:
        # __reduce__ ships the name and unpickling re-resolves against
        # the local registry.
        for name in available_backends():
            backend = get_backend(name)
            clone = pickle.loads(pickle.dumps(backend))
            assert clone is backend

    def test_register_backend_extension_point(self):
        class TracingBackend(NumpyBackend):
            name = "tracing"

        register_backend("tracing", TracingBackend)
        try:
            assert get_backend("tracing").name == "tracing"
            assert "tracing" in available_backends()
        finally:
            _FACTORIES.pop("tracing", None)
            _INSTANCES.pop("tracing", None)


class TestBackendOf:
    def test_reads_histogram_backend(self):
        universe = Universe(np.arange(4, dtype=float)[:, None], name="u4")
        histogram = Histogram(universe, np.ones(4), backend="float32")
        assert backend_of(histogram) is get_backend("float32")

    def test_plain_objects_get_the_default(self):
        assert backend_of(object()) is get_backend(DEFAULT_BACKEND)
        assert backend_of(None) is get_backend(DEFAULT_BACKEND)


class TestProtocolSurface:
    @pytest.mark.parametrize("name", available_backends())
    def test_registered_backends_satisfy_the_protocol(self, name):
        backend = get_backend(name)
        assert isinstance(backend, ArrayBackend)
        assert isinstance(backend.name, str)

    def test_float32_widening_is_exact(self):
        # The durable-format rule leans on this: float32 -> float64 is
        # value-preserving, so a snapshot taken on the float32 backend
        # restores bitwise into any backend.
        backend = Float32Backend()
        values = np.random.default_rng(0).random(256)
        native = backend.from_float64(values)
        widened = backend.to_float64(native)
        assert widened.dtype == np.float64
        np.testing.assert_array_equal(widened,
                                      native.astype(np.float64))
