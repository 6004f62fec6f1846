"""Tests for the IS-ASGD solver (Algorithm 4)."""

import numpy as np
import pytest

from repro.core.balancing import BalancingDecision
from repro.core.config import ISASGDConfig
from repro.core.importance import ImportanceScheme
from repro.core.is_asgd import ISASGDSolver
from repro.solvers.sgd import SGDSolver
from repro.utils.rng import as_rng


@pytest.fixture(scope="module")
def fitted(small_problem):
    solver = ISASGDSolver(ISASGDConfig(step_size=0.3, epochs=5, num_workers=4, seed=0))
    return solver.fit(small_problem)


class TestBasicBehaviour:
    def test_result_fields(self, fitted, small_problem):
        assert fitted.solver == "is_asgd"
        assert fitted.weights.shape == (small_problem.n_features,)
        assert len(fitted.curve) == 5
        assert fitted.trace is not None and fitted.trace.total_iterations > 0

    def test_loss_decreases(self, fitted):
        assert fitted.curve.rmse[-1] < fitted.curve.rmse[0]

    def test_error_rate_better_than_chance(self, fitted):
        assert fitted.best_error_rate < 0.4

    def test_info_contains_algorithm_diagnostics(self, fitted):
        info = fitted.info
        assert info["balancing_decision"] in {"balance", "shuffle"}
        assert 0.0 < info["psi"] <= 1.0
        assert info["rho"] >= 0.0
        assert info["importance_scheme"] == "lipschitz"
        assert info["num_workers"] == 4

    def test_wall_clock_monotone(self, fitted):
        times = np.asarray(fitted.curve.wall_clock)
        assert np.all(np.diff(times) > 0)

    def test_reproducibility(self, small_problem):
        cfg = ISASGDConfig(step_size=0.3, epochs=3, num_workers=4, seed=42)
        r1 = ISASGDSolver(cfg).fit(small_problem)
        r2 = ISASGDSolver(cfg).fit(small_problem)
        np.testing.assert_allclose(r1.weights, r2.weights)
        assert r1.curve.rmse == r2.curve.rmse


class TestConfigurationKnobs:
    def test_uniform_importance_degenerates_to_asgd_style(self, small_problem):
        cfg = ISASGDConfig(
            step_size=0.3, epochs=3, num_workers=4, seed=0, importance=ImportanceScheme.UNIFORM
        )
        result = ISASGDSolver(cfg).fit(small_problem)
        assert result.info["importance_scheme"] == "uniform"
        assert result.curve.rmse[-1] < result.curve.rmse[0]

    def test_forced_balancing_recorded(self, small_problem):
        cfg = ISASGDConfig(step_size=0.3, epochs=2, num_workers=4, seed=0,
                           force_balancing=BalancingDecision.SHUFFLE)
        result = ISASGDSolver(cfg).fit(small_problem)
        assert result.info["balancing_decision"] == "shuffle"

    def test_config_overrides_via_kwargs(self, small_problem):
        solver = ISASGDSolver(step_size=0.2, epochs=2, num_workers=3, seed=1)
        assert solver.config.num_workers == 3
        result = solver.fit(small_problem)
        assert len(result.curve) == 2

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            ISASGDSolver(ISASGDConfig(), async_mode="mpi")

    def test_prepare_partition_masses(self, small_problem):
        solver = ISASGDSolver(ISASGDConfig(num_workers=4, seed=0,
                                           force_balancing=BalancingDecision.BALANCE,
                                           balancing_method="snake"))
        partition, balancing = solver.prepare_partition(small_problem, as_rng(0))
        assert partition.num_workers == 4
        assert balancing.decision is BalancingDecision.BALANCE
        assert partition.mass_imbalance() < 1.5

    def test_balancing_method_recorded_and_validated(self, small_problem):
        result = ISASGDSolver(
            ISASGDConfig(step_size=0.3, epochs=2, num_workers=4, seed=0,
                         balancing_method="snake")
        ).fit(small_problem)
        assert result.info["balancing_method"] == "snake"
        with pytest.raises(ValueError):
            ISASGDConfig(balancing_method="magic")


class TestAgainstBaselines:
    def test_is_asgd_not_much_worse_than_serial_sgd(self, small_problem):
        """Iterative quality should be in the same ballpark as serial SGD."""
        sgd = SGDSolver(step_size=0.3, epochs=5, seed=0).fit(small_problem)
        cfg = ISASGDConfig(step_size=0.3, epochs=5, num_workers=4, seed=0)
        is_asgd = ISASGDSolver(cfg).fit(small_problem)
        assert is_asgd.curve.rmse[-1] <= sgd.curve.rmse[-1] * 1.25
