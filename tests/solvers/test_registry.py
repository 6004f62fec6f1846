"""Tests for the solver registry."""

import pytest

from repro.core.is_asgd import ISASGDSolver
from repro.solvers.asgd import ASGDSolver
from repro.solvers.base import BaseSolver
from repro.solvers.registry import available_solvers, make_solver, register_solver
from repro.solvers.sgd import SGDSolver


class TestRegistry:
    def test_contains_paper_algorithms(self):
        names = available_solvers()
        for required in ("sgd", "asgd", "is_asgd", "svrg_asgd", "is_sgd"):
            assert required in names

    def test_make_sgd_ignores_num_workers(self):
        solver = make_solver("sgd", step_size=0.1, epochs=2, num_workers=16)
        assert isinstance(solver, SGDSolver)

    def test_make_asgd_uses_num_workers(self):
        solver = make_solver("asgd", step_size=0.1, epochs=2, num_workers=16)
        assert isinstance(solver, ASGDSolver)
        assert solver.num_workers == 16

    def test_make_is_asgd(self):
        solver = make_solver("is_asgd", step_size=0.1, epochs=2, num_workers=8, seed=3)
        assert isinstance(solver, ISASGDSolver)
        assert solver.config.num_workers == 8

    def test_every_solver_constructs(self):
        for name in available_solvers():
            solver = make_solver(name, step_size=0.1, epochs=1, num_workers=2)
            assert isinstance(solver, BaseSolver)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="available"):
            make_solver("adam")

    def test_register_custom(self):
        class Custom(SGDSolver):
            name = "custom_sgd"

        register_solver("custom_sgd", lambda **kw: Custom(step_size=0.1, epochs=1))
        try:
            assert isinstance(make_solver("custom_sgd"), Custom)
        finally:
            from repro.solvers import registry

            registry._FACTORIES.pop("custom_sgd", None)

    def test_fitted_results_share_interface(self, small_problem):
        for name in ("sgd", "asgd", "is_asgd"):
            solver = make_solver(name, step_size=0.3, epochs=2, num_workers=2, seed=0)
            result = solver.fit(small_problem)
            summary = result.summary()
            assert summary["solver"] == name
            assert "final_rmse" in summary and "best_error_rate" in summary
