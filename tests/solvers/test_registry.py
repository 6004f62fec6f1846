"""Tests for the solver registry."""

import pytest

from repro.core.is_asgd import ISASGDSolver
from repro.solvers.asgd import ASGDSolver
from repro.solvers.base import AsyncSolver, BaseSolver
from repro.solvers.is_sgd import ISSGDSolver
from repro.solvers.registry import (
    ASYNC_SOLVER_NAMES,
    available_solvers,
    make_solver,
    solver_class,
)
from repro.solvers.sgd import SGDSolver
from repro.solvers.svrg_asgd import SVRGASGDSolver

#: The five built-in entries and the class each name builds.
BUILTIN_SOLVERS = {
    "asgd": ASGDSolver,
    "is_asgd": ISASGDSolver,
    "is_sgd": ISSGDSolver,
    "sgd": SGDSolver,
    "svrg_asgd": SVRGASGDSolver,
}


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

    @pytest.mark.parametrize("name", sorted(BUILTIN_SOLVERS))
    def test_solver_class_is_the_class_make_solver_builds(self, name):
        # The factory table and the documentation table name the same class.
        solver = make_solver(name, step_size=0.1, epochs=1, num_workers=2)
        assert type(solver) is BUILTIN_SOLVERS[name]
        assert solver_class(name) is BUILTIN_SOLVERS[name]

    @pytest.mark.parametrize("name", sorted(BUILTIN_SOLVERS))
    def test_async_names_are_exactly_the_runtime_solvers(self, name):
        # The experiment store keys runs of these names by execution mode.
        is_async = issubclass(solver_class(name), AsyncSolver)
        assert is_async == (name in ASYNC_SOLVER_NAMES)

    def test_solver_class_of_unknown_name_lists_the_builtins(self):
        with pytest.raises(ValueError, match="available: asgd, is_asgd, is_sgd, sgd, svrg_asgd"):
            solver_class("adam")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="available"):
            make_solver("adam")

    def test_fitted_results_share_interface(self, small_problem):
        for name in ("sgd", "asgd", "is_asgd"):
            solver = make_solver(name, step_size=0.3, epochs=2, num_workers=2, seed=0)
            result = solver.fit(small_problem)
            summary = result.summary()
            assert summary["solver"] == name
            assert "final_rmse" in summary and "best_error_rate" in summary
