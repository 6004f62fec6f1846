"""End-to-end integration tests across the whole library stack."""

import numpy as np
import pytest

from repro import (
    ASGDSolver,
    ISASGDConfig,
    ISASGDSolver,
    LogisticObjective,
    Problem,
    SGDSolver,
    load_dataset,
    make_solver,
)
from repro.datasets.splits import train_test_split


@pytest.fixture(scope="module")
def smoke_problem():
    ds = load_dataset("url_smoke", seed=1)
    objective = LogisticObjective.l1_regularized(1e-4)
    return Problem(X=ds.X, y=ds.y, objective=objective, name="url_smoke")


class TestPublicApiFlow:
    def test_quickstart_flow(self, smoke_problem):
        """The README quickstart path must work exactly as documented."""
        solver = ISASGDSolver(ISASGDConfig(step_size=0.3, epochs=4, num_workers=4, seed=0))
        result = solver.fit(smoke_problem)
        assert result.best_error_rate < 0.5
        assert result.curve.rmse[-1] < result.curve.rmse[0]

    def test_train_test_generalisation(self):
        ds = load_dataset("news20_smoke", seed=2)
        Xtr, ytr, Xte, yte = train_test_split(ds.X, ds.y, test_fraction=0.25, seed=0)
        objective = LogisticObjective.l1_regularized(1e-4)
        problem = Problem(X=Xtr, y=ytr, objective=objective, name="train")
        result = ISASGDSolver(
            ISASGDConfig(step_size=0.5, epochs=6, num_workers=4, seed=0)
        ).fit(problem)
        test_error = objective.error_rate(result.weights, Xte, yte)
        train_error = objective.error_rate(result.weights, Xtr, ytr)
        # The model must clearly generalise beyond chance.
        assert train_error < 0.35
        assert test_error < 0.5

    def test_registry_and_direct_construction_agree(self, smoke_problem):
        direct = ISASGDSolver(
            ISASGDConfig(step_size=0.3, epochs=2, num_workers=4, seed=9)
        ).fit(smoke_problem)
        via_registry = make_solver(
            "is_asgd", step_size=0.3, epochs=2, num_workers=4, seed=9
        ).fit(smoke_problem)
        np.testing.assert_allclose(direct.weights, via_registry.weights)

    def test_all_solvers_run_on_same_problem(self, smoke_problem):
        for name in ("sgd", "is_sgd", "asgd", "is_asgd"):
            result = make_solver(name, step_size=0.3, epochs=2, num_workers=3, seed=0).fit(
                smoke_problem
            )
            assert np.isfinite(result.curve.rmse).all()
            assert result.curve.rmse[-1] < result.curve.rmse[0] * 1.05


class TestCrossBackendConsistency:
    def test_simulated_and_process_is_asgd_reach_similar_quality(self, smoke_problem):
        cfg = ISASGDConfig(step_size=0.3, epochs=4, num_workers=2, seed=0)
        sim = ISASGDSolver(cfg, async_mode="per_sample").fit(smoke_problem)
        proc = ISASGDSolver(cfg, async_mode="process").fit(smoke_problem)
        assert abs(sim.final_rmse - proc.final_rmse) < 0.25
        assert proc.best_error_rate < 0.5

    def test_asgd_with_one_worker_close_to_serial_sgd(self, smoke_problem):
        """With a single worker and zero delay the async engine is just SGD."""
        from repro.async_engine.staleness import ConstantDelay

        sgd = SGDSolver(step_size=0.3, epochs=3, seed=0).fit(smoke_problem)
        asgd = ASGDSolver(
            step_size=0.3, epochs=3, num_workers=1, seed=0, staleness=ConstantDelay(0)
        ).fit(smoke_problem)
        assert abs(sgd.final_rmse - asgd.final_rmse) < 0.15
