"""Tests for the serial solvers: SGD and IS-SGD."""

import numpy as np
import pytest

from repro.objectives.least_squares import LeastSquaresObjective
from repro.solvers.base import Problem
from repro.solvers.is_sgd import ISSGDSolver
from repro.solvers.sgd import SGDSolver
from repro.sparse.csr import CSRMatrix


@pytest.fixture(scope="module")
def ls_problem():
    """A small least-squares problem with a known optimum."""
    rng = np.random.default_rng(0)
    dense = rng.normal(size=(80, 10)) * (rng.random((80, 10)) < 0.4)
    w_true = rng.normal(size=10)
    y = dense @ w_true + 0.01 * rng.normal(size=80)
    X = CSRMatrix.from_dense(dense)
    return Problem(X=X, y=y, objective=LeastSquaresObjective.ridge(1e-4), name="ls")


ALL_SERIAL = [
    (SGDSolver, {"step_size": 0.05, "epochs": 8}),
    (ISSGDSolver, {"step_size": 0.05, "epochs": 8}),
]


class TestCommonBehaviour:
    @pytest.mark.parametrize("cls,kwargs", ALL_SERIAL)
    def test_loss_decreases(self, ls_problem, cls, kwargs):
        result = cls(seed=0, **kwargs).fit(ls_problem)
        assert result.curve.rmse[-1] < result.curve.rmse[0]

    @pytest.mark.parametrize("cls,kwargs", ALL_SERIAL)
    def test_curve_lengths_match_epochs(self, ls_problem, cls, kwargs):
        result = cls(seed=0, **kwargs).fit(ls_problem)
        assert len(result.curve) == kwargs["epochs"]
        assert result.trace is not None
        assert len(result.trace.epochs) == kwargs["epochs"]

    @pytest.mark.parametrize("cls,kwargs", ALL_SERIAL)
    def test_wall_clock_monotone(self, ls_problem, cls, kwargs):
        result = cls(seed=0, **kwargs).fit(ls_problem)
        assert np.all(np.diff(result.curve.wall_clock) > 0)

    @pytest.mark.parametrize("cls,kwargs", ALL_SERIAL)
    def test_reproducible(self, ls_problem, cls, kwargs):
        r1 = cls(seed=3, **kwargs).fit(ls_problem)
        r2 = cls(seed=3, **kwargs).fit(ls_problem)
        np.testing.assert_allclose(r1.weights, r2.weights)

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            SGDSolver(step_size=0.0)
        with pytest.raises(ValueError):
            SGDSolver(epochs=0)
        with pytest.raises(ValueError):
            SGDSolver(record_every=0)
        with pytest.raises(ValueError):
            ISSGDSolver(step_clip=0.0)


class TestAgainstExactSolution:
    def test_sgd_approaches_exact_ridge_solution(self, ls_problem):
        w_star = ls_problem.objective.solve_exact(ls_problem.X, ls_problem.y)
        loss_star = ls_problem.objective.full_loss(w_star, ls_problem.X, ls_problem.y)
        result = SGDSolver(step_size=0.05, epochs=30, seed=0).fit(ls_problem)
        loss_sgd = ls_problem.objective.full_loss(result.weights, ls_problem.X, ls_problem.y)
        assert loss_sgd <= loss_star * 3 + 0.05


class TestClassificationProblem:
    @pytest.mark.parametrize("cls,kwargs", ALL_SERIAL)
    def test_better_than_chance(self, small_problem, cls, kwargs):
        result = cls(seed=0, **{**kwargs, "step_size": 0.3}).fit(small_problem)
        assert result.best_error_rate < 0.45


class TestISSGDSpecifics:
    def test_info_contains_psi(self, small_problem):
        result = ISSGDSolver(step_size=0.3, epochs=3, seed=0).fit(small_problem)
        assert 0.0 < result.info["psi"] <= 1.0

    def test_sample_draws_recorded(self, small_problem):
        result = ISSGDSolver(step_size=0.3, epochs=2, seed=0).fit(small_problem)
        assert result.trace.epochs[0].sample_draws == small_problem.n_samples

    def test_reshuffle_vs_regenerate(self, small_problem):
        a = ISSGDSolver(step_size=0.3, epochs=3, seed=0, reshuffle_sequences=False).fit(small_problem)
        b = ISSGDSolver(step_size=0.3, epochs=3, seed=0, reshuffle_sequences=True).fit(small_problem)
        # Both variants must converge; exact iterates differ.
        assert a.curve.rmse[-1] < a.curve.rmse[0]
        assert b.curve.rmse[-1] < b.curve.rmse[0]
