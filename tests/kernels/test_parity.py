"""Parity gate: every registered kernel backend must agree with ``reference``.

The suite is registry-driven: for every registered solver (and the skip-µ
ablation of ``svrg_asgd``, which runs its own rule) × registered objective ×
registered backend (other than ``reference`` itself), both backends are run
with identical seeds on a fixed smoke problem and the resulting
:class:`TrainResult` convergence curves are compared — so a newly
registered backend (``native``, or any future one) is covered
automatically.  The asynchronous solvers run on both deterministic tiers:
``per_sample`` drives the per-sample primitives (or the native fused
sample loop), ``batched`` the block primitives (or the native fused frozen
block).  Every primitive performs the same mathematical operations on
every backend, so the tolerances below are at machine-epsilon scale — any
real semantic drift fails loudly.  (When the ``native`` backend falls back
to ``vectorized`` on a machine without a compiler, its parametrisations
still run — they then re-check the vectorized path, keeping the suite
green everywhere.)
"""

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.kernels.registry import available_backends
from repro.objectives.registry import available_objectives, make_objective
from repro.solvers.base import Problem
from repro.solvers.registry import ASYNC_SOLVER_NAMES, available_solvers, make_solver
from repro.sparse.csr import CSRMatrix

#: Each asynchronous solver, and the flag that makes ``svrg_asgd`` run the
#: ``svrg_skip_dense`` rule (the skip-µ ablation), by the name used in ids.
ASYNC_VARIANTS = {
    **{name: (name, {}) for name in ASYNC_SOLVER_NAMES},
    "svrg_asgd_skip_dense": ("svrg_asgd", {"skip_dense_term": True}),
}

#: Each registered solver; an asynchronous one once per deterministic tier.
SOLVERS = [
    *(name for name in available_solvers() if name not in ASYNC_SOLVER_NAMES),
    *(f"{name}/{mode}" for name in ASYNC_VARIANTS for mode in ("per_sample", "batched")),
]

#: Every registered backend is pinned to the reference ground truth.
COMPARED_BACKENDS = [name for name in available_backends() if name != "reference"]

ATOL = 1e-10
RTOL = 1e-9


@pytest.fixture(scope="module")
def classification_data():
    spec = SyntheticSpec(
        n_samples=60,
        n_features=40,
        nnz_per_sample=6.0,
        feature_skew=1.0,
        norm_spread=0.5,
        label_noise=0.02,
        name="parity",
    )
    X, y, _ = make_sparse_classification(spec, seed=7)
    return X, y


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(11)
    dense = rng.normal(size=(60, 40)) * (rng.random((60, 40)) < 0.15)
    w_true = rng.normal(size=40)
    y = dense @ w_true + 0.01 * rng.normal(size=60)
    return CSRMatrix.from_dense(dense), y


def _problem(objective_name, classification_data, regression_data) -> Problem:
    objective = make_objective(objective_name, eta=1e-3)
    X, y = classification_data if objective.is_classification else regression_data
    return Problem(X=X, y=y, objective=objective, name=f"parity[{objective_name}]")


def _fit(solver_name, problem, backend):
    kwargs = {"step_size": 0.1, "epochs": 3, "seed": 0, "kernel": backend}
    solver_name, _, async_mode = solver_name.partition("/")
    if async_mode:
        solver_name, flags = ASYNC_VARIANTS[solver_name]
        kwargs.update(async_mode=async_mode, num_workers=2, batch_size=8, **flags)
    return make_solver(solver_name, **kwargs).fit(problem)


@pytest.fixture(scope="module")
def reference_fits():
    """Per-module cache of reference runs, shared across backend params."""
    cache = {}

    def get(solver_name, objective_name, problem):
        key = (solver_name, objective_name)
        if key not in cache:
            cache[key] = _fit(solver_name, problem, "reference")
        return cache[key]

    return get


@pytest.mark.parametrize("backend", COMPARED_BACKENDS)
@pytest.mark.parametrize("objective_name", available_objectives())
@pytest.mark.parametrize("solver_name", SOLVERS)
def test_backends_produce_identical_curves(
    solver_name, objective_name, backend, classification_data, regression_data, reference_fits
):
    problem = _problem(objective_name, classification_data, regression_data)
    ref = reference_fits(solver_name, objective_name, problem)
    res = _fit(solver_name, problem, backend)

    np.testing.assert_allclose(res.weights, ref.weights, rtol=RTOL, atol=ATOL)
    assert res.curve.epochs == ref.curve.epochs
    assert res.curve.iterations == ref.curve.iterations
    np.testing.assert_allclose(res.curve.rmse, ref.curve.rmse, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(
        res.curve.error_rate, ref.curve.error_rate, rtol=RTOL, atol=ATOL
    )
    np.testing.assert_allclose(
        res.curve.wall_clock, ref.curve.wall_clock, rtol=RTOL, atol=ATOL
    )
    # The operation counters feeding the cost model must agree exactly.
    assert res.trace.total_iterations == ref.trace.total_iterations
    assert res.trace.total_sparse_coordinate_updates == ref.trace.total_sparse_coordinate_updates
    assert res.trace.total_dense_coordinate_updates == ref.trace.total_dense_coordinate_updates


@pytest.mark.parametrize("solver_name", ["sgd", "is_sgd"])
def test_sgd_trajectories_bitwise_identical(
    solver_name, classification_data, regression_data
):
    """The per-sample hot path performs identical fp ops — weights match bitwise.

    Pinned to the two pure-Python backends: the ``native`` backend's C dot
    products round differently from BLAS in the last ulp, so it is covered
    by the tolerance gate above plus its own fused-vs-stepwise bitwise
    self-consistency test in ``test_native.py``.
    """
    problem = _problem("logistic_l2", classification_data, regression_data)
    ref = _fit(solver_name, problem, "reference")
    vec = _fit(solver_name, problem, "vectorized")
    np.testing.assert_array_equal(vec.weights, ref.weights)
