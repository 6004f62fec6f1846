"""Tests specific to the ``native`` backend: fallback, fusion, dispatch.

The numerical parity of the native backend against ``reference`` is covered
by the registry-driven suite in ``test_parity.py``; this module pins the
behaviours unique to a compiled backend — the warn-once vectorized fallback
when no compiler is available, the bitwise self-consistency of the fused
block primitives against their per-step equivalents, and the graceful
per-call fallback for objectives the C dispatch does not know.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import registry
from repro.kernels.native import (
    NativeBuildError,
    _reset_fallback_state,
    native_status,
)
from repro.kernels.native import builder
from repro.kernels.vectorized import VectorizedKernel
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import L1Regularizer


def _native_or_skip():
    backend = registry.make_backend("native")
    if backend.name != "native":
        pytest.skip("native backend unavailable on this machine (fallback active)")
    return backend


@pytest.fixture
def fresh_native_slot(monkeypatch):
    """Remove any cached 'native' instance and restore it afterwards."""
    saved = registry._INSTANCES.pop("native", None)
    yield
    registry._INSTANCES.pop("native", None)
    if saved is not None:
        registry._INSTANCES["native"] = saved
    _reset_fallback_state()


class TestFallback:
    def test_missing_compiler_falls_back_with_single_warning(
        self, fresh_native_slot, monkeypatch
    ):
        """Simulated build failure → shared vectorized instance, warn once."""

        def broken_build():
            raise NativeBuildError("simulated: no C compiler on this machine")

        monkeypatch.setattr(builder, "load_native_lib", broken_build)
        _reset_fallback_state()

        with pytest.warns(RuntimeWarning, match="falling back to the 'vectorized'"):
            backend = registry.make_backend("native")
        assert type(backend) is VectorizedKernel
        assert backend is registry.make_backend("vectorized")
        assert "fallback" in native_status()
        assert not backend.fused_sample_block

        # The instance is cached, so resolving again is silent...
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert registry.make_backend("native") is backend

        # ...and even a forced re-instantiation warns at most once per process.
        registry._INSTANCES.pop("native", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = registry.make_backend("native")
        assert again is backend

    def test_env_selection_never_hard_fails(self, fresh_native_slot, monkeypatch):
        """REPRO_KERNEL_BACKEND=native must resolve even without a compiler."""

        def broken_build():
            raise NativeBuildError("simulated: no C compiler on this machine")

        monkeypatch.setattr(builder, "load_native_lib", broken_build)
        _reset_fallback_state()
        monkeypatch.setenv(registry.BACKEND_ENV_VAR, "native")
        with pytest.warns(RuntimeWarning):
            backend = registry.resolve_backend(None)
        assert type(backend) is VectorizedKernel

    def test_fallback_warning_names_the_caller(self, tmp_path):
        """A real failed build warns at the line that asked for the kernel.

        Runs in a child process with no usable compiler and an empty build
        directory, so the extension genuinely cannot be built.
        """
        script = tmp_path / "caller.py"
        script.write_text(
            "import json, warnings\n"
            "from repro.kernels import make_backend, resolve_backend\n"
            "from repro.kernels import registry\n"
            "from repro.kernels.native import _reset_fallback_state\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    resolve_backend(None)\n"
            "    registry._INSTANCES.pop('native', None)\n"
            "    _reset_fallback_state()\n"
            "    make_backend('native')\n"
            "print(json.dumps([[w.filename, w.lineno] for w in caught]))\n"
        )
        root = Path(__file__).resolve().parents[2]
        env = {k: v for k, v in os.environ.items() if k != registry.BACKEND_ENV_VAR}
        env.update(CC="/bin/false", CXX="/bin/false",
                   REPRO_NATIVE_BUILD_DIR=str(tmp_path / "build"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[str(script), 7], [str(script), 10]]


class TestFusedPrimitives:
    def test_run_sample_block_matches_stepwise_bitwise(self, small_problem):
        """One fused C call == the per-step sample_update loop, bit for bit."""
        backend = _native_or_skip()
        X, y, obj = small_problem.X, small_problem.y, small_problem.objective
        rng = np.random.default_rng(5)
        n = X.n_rows
        order = rng.permutation(n)
        scales = np.full(n, -0.07)

        w_block = np.zeros(X.n_cols)
        w_steps = np.zeros(X.n_cols)
        nnz_block = backend.run_sample_block(w_block, obj, X, y, order, scales)
        nnz_steps = 0
        for t in range(n):
            i = int(order[t])
            nnz_steps += backend.sample_update(w_steps, obj, X, i, float(y[i]), -0.07)
        assert nnz_block == nnz_steps
        np.testing.assert_array_equal(w_block, w_steps)

    def test_run_frozen_block_matches_composable_path(self, small_problem):
        """Fused frozen macro-step == segment_margins → entries → scatter."""
        backend = _native_or_skip()
        vec = registry.make_backend("vectorized")
        X, y, obj = small_problem.X, small_problem.y, small_problem.objective
        rng = np.random.default_rng(9)
        rows = rng.integers(0, X.n_rows, 50)
        idx, val, lengths = X.gather_rows(rows)
        scales = -0.1 * rng.random(rows.size)
        w0 = rng.standard_normal(X.n_cols)

        w_fused = w0.copy()
        nnz = backend.run_frozen_block(w_fused, obj, idx, val, lengths, y[rows], scales)
        assert nnz == idx.size

        w_ref = w0.copy()
        margins = vec.segment_margins(idx, val, lengths, w_ref)
        coeffs = obj.batch_grad_coeffs(margins, y[rows])
        entries = np.repeat(scales * coeffs, lengths) * val
        entries += np.repeat(scales, lengths) * obj.regularizer.grad_coords(w_ref, idx)
        vec.scatter_add(w_ref, idx, entries)
        np.testing.assert_allclose(w_fused, w_ref, rtol=1e-12, atol=1e-14)

    def test_empty_block_is_a_noop(self, small_problem):
        backend = _native_or_skip()
        X, y, obj = small_problem.X, small_problem.y, small_problem.objective
        w = np.ones(X.n_cols)
        rows = np.zeros(0, dtype=np.int64)
        assert backend.run_sample_block(w, obj, X, y, rows, np.zeros(0)) == 0
        np.testing.assert_array_equal(w, np.ones(X.n_cols))


class TestDispatch:
    def test_supported_objectives(self):
        backend = _native_or_skip()
        assert backend.fused_sample_block
        assert backend.supports_objective(LogisticObjective())
        assert backend.supports_objective(
            LogisticObjective(regularizer=L1Regularizer(1e-4))
        )

    def test_unknown_objective_falls_through_to_python(self, small_problem):
        """A custom objective subclass must take the inherited Python path."""
        backend = _native_or_skip()

        class TiltedLogistic(LogisticObjective):
            def _loss_derivative(self, margin_or_pred, y):
                return 2.0 * super()._loss_derivative(margin_or_pred, y)

            def _vector_loss_derivative(self, margins, y):
                return 2.0 * super()._vector_loss_derivative(margins, y)

        obj = TiltedLogistic()
        assert not backend.supports_objective(obj)
        X, y = small_problem.X, small_problem.y
        w_nat = np.zeros(X.n_cols)
        w_vec = np.zeros(X.n_cols)
        vec = registry.make_backend("vectorized")
        order = np.arange(X.n_rows, dtype=np.int64)
        scales = np.full(X.n_rows, -0.05)
        backend.run_sample_block(w_nat, obj, X, y, order, scales)
        vec.run_sample_block(w_vec, obj, X, y, order, scales)
        np.testing.assert_array_equal(w_nat, w_vec)


class TestBaseBlockPrimitive:
    def test_generic_run_sample_block_is_the_historical_loop(self, small_problem):
        """The base-class default is exactly the per-step loop on any backend."""
        for name in ("reference", "vectorized"):
            backend = registry.make_backend(name)
            assert not backend.fused_sample_block
            assert not backend.supports_objective(small_problem.objective)
            X, y, obj = small_problem.X, small_problem.y, small_problem.objective
            rng = np.random.default_rng(3)
            order = rng.permutation(X.n_rows)
            w_block = np.zeros(X.n_cols)
            w_steps = np.zeros(X.n_cols)
            nnz = backend.run_sample_block(
                w_block, obj, X, y, order, np.full(X.n_rows, -0.1)
            )
            expected = 0
            for i in order:
                expected += backend.sample_update(
                    w_steps, obj, X, int(i), float(y[i]), -0.1
                )
            assert nnz == expected
            np.testing.assert_array_equal(w_block, w_steps)

    def test_generic_run_frozen_block_not_implemented(self, small_problem):
        backend = registry.make_backend("vectorized")
        X = small_problem.X
        idx, val, lengths = X.gather_rows(np.arange(4))
        with pytest.raises(NotImplementedError):
            backend.run_frozen_block(
                np.zeros(X.n_cols),
                small_problem.objective,
                idx,
                val,
                lengths,
                small_problem.y[:4],
                np.full(4, -0.1),
            )
