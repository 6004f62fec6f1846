"""Tests for kernel-backend selection."""

import numpy as np
import pytest

from repro.kernels import (
    BACKEND_ENV_VAR,
    KernelBackend,
    ReferenceKernel,
    VectorizedKernel,
    available_backends,
    default_backend_name,
    make_backend,
    resolve_backend,
)


class TestRegistry:
    def test_builtin_backends_available(self):
        assert available_backends() == ["native", "reference", "vectorized"]

    def test_make_backend_returns_shared_instances(self):
        assert make_backend("reference") is make_backend("reference")
        assert isinstance(make_backend("reference"), ReferenceKernel)
        assert isinstance(make_backend("vectorized"), VectorizedKernel)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            make_backend("bogus")

    def test_unknown_backend_error_lists_availability(self):
        from repro.kernels import backend_availability

        status = backend_availability()
        assert set(status) == set(available_backends())
        assert status["reference"] == "available"
        assert status["vectorized"] == "available"
        with pytest.raises(ValueError) as excinfo:
            make_backend("bogus")
        message = str(excinfo.value)
        for name, state in status.items():
            assert f"{name} [{state}]" in message

    def test_backend_doc_class_has_no_build_side_effects(self):
        from repro.kernels import backend_doc_class
        from repro.kernels.native.backend import NativeKernel

        assert backend_doc_class("reference") is ReferenceKernel
        assert backend_doc_class("vectorized") is VectorizedKernel
        assert backend_doc_class("native") is NativeKernel
        with pytest.raises(ValueError, match="unknown kernel backend"):
            backend_doc_class("bogus")

    @pytest.mark.parametrize("name", ["native", "reference", "vectorized"])
    def test_each_entry_documents_the_backend_of_its_name(self, name):
        from repro.kernels import backend_doc_class

        # Trace and store records carry the backend's ``name``; it must be
        # the key the table files it under.
        assert backend_doc_class(name).name == name


class TestDefaultResolution:
    def test_builtin_default_is_native(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_backend_name() == "native"
        backend = resolve_backend(None)
        assert backend is make_backend("native")
        # Without a C compiler the name resolves to the vectorized instance.
        assert backend.name == "native" or backend is make_backend("vectorized")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert default_backend_name() == "reference"
        assert isinstance(resolve_backend(None), ReferenceKernel)

    def test_env_var_naming_no_backend_is_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        assert default_backend_name() == "bogus"
        with pytest.raises(ValueError, match="unknown kernel backend 'bogus'"):
            resolve_backend(None)
        # An explicit name still wins over the variable.
        assert isinstance(resolve_backend("reference"), ReferenceKernel)

    def test_resolve_accepts_instance_name_and_none(self):
        inst = ReferenceKernel()
        assert resolve_backend(inst) is inst
        assert isinstance(resolve_backend("reference"), ReferenceKernel)
        assert isinstance(resolve_backend(None), KernelBackend)
        with pytest.raises(TypeError):
            resolve_backend(42)


class TestSolverIntegration:
    def test_solver_accepts_backend_name(self, small_problem):
        from repro.solvers.registry import make_solver

        solver = make_solver("sgd", step_size=0.3, epochs=2, seed=0, kernel="reference")
        assert isinstance(solver.kernel, ReferenceKernel)
        result = solver.fit(small_problem)
        assert np.isfinite(result.curve.rmse).all()

    def test_recorder_uses_kernel(self, small_problem):
        ref = small_problem.recorder(kernel="reference")
        vec = small_problem.recorder(kernel="vectorized")
        w = np.zeros(small_problem.n_features)
        assert ref.evaluate(w).rmse == pytest.approx(vec.evaluate(w).rmse, abs=1e-12)
