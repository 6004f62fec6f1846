"""Tests for the asynchronous solvers ASGD and SVRG-ASGD."""

import numpy as np
import pytest

from repro.async_engine.staleness import ConstantDelay
from repro.core.is_asgd import ISASGDSolver
from repro.rules.sgd import SGDRule
from repro.solvers.asgd import ASGDSolver
from repro.solvers.sgd import SGDSolver
from repro.solvers.svrg_asgd import SVRGASGDSolver


class TestSGDRule:
    def test_delta_direction_and_scale(self, small_problem):
        obj = small_problem.objective
        rule = SGDRule(objective=obj, step_size=0.5)
        x_idx, x_val = small_problem.X.row(0)
        w = np.zeros(small_problem.n_features)
        grad = obj.sample_grad(w, x_idx, x_val, float(small_problem.y[0]))
        delta = rule.compute_update(w[x_idx], x_idx, x_val, float(small_problem.y[0]), 1.0)
        assert rule.dense_delta is None
        np.testing.assert_allclose(delta, -0.5 * grad.values)

    def test_step_weight_scales_delta(self, small_problem):
        obj = small_problem.objective
        rule = SGDRule(objective=obj, step_size=0.5)
        x_idx, x_val = small_problem.X.row(0)
        w = np.zeros(small_problem.n_features)
        d1 = rule.compute_update(w[x_idx], x_idx, x_val, float(small_problem.y[0]), 1.0)
        d2 = rule.compute_update(w[x_idx], x_idx, x_val, float(small_problem.y[0]), 2.0)
        np.testing.assert_allclose(d2, 2.0 * d1)


class TestASGDSolver:
    def test_converges(self, small_problem):
        solver = ASGDSolver(step_size=0.3, epochs=5, num_workers=4, seed=0)
        result = solver.fit(small_problem)
        assert result.curve.rmse[-1] < result.curve.rmse[0]
        assert result.best_error_rate < 0.45
        assert result.info["async_mode"] == solver.async_mode

    def test_num_workers_recorded(self, small_problem):
        result = ASGDSolver(step_size=0.3, epochs=2, num_workers=6, seed=0).fit(small_problem)
        assert result.info["num_workers"] == 6
        # The default delay models: UniformDelay(W - 1) for ASGD (and
        # SVRG-ASGD), UniformDelay(W) for IS-ASGD.
        is_asgd = ISASGDSolver(step_size=0.3, epochs=2, num_workers=6, seed=0).fit(small_problem)
        assert (result.info["max_delay"], is_asgd.info["max_delay"]) == (5, 6)

    def test_simulated_time_scales_down_with_workers(self, small_problem):
        slow = ASGDSolver(step_size=0.3, epochs=3, num_workers=1, seed=0).fit(small_problem)
        fast = ASGDSolver(step_size=0.3, epochs=3, num_workers=8, seed=0).fit(small_problem)
        assert fast.curve.total_time < slow.curve.total_time

    def test_iterative_quality_degrades_with_high_staleness(self, small_problem):
        fresh = ASGDSolver(step_size=0.3, epochs=4, num_workers=4, seed=0,
                           staleness=ConstantDelay(0)).fit(small_problem)
        stale = ASGDSolver(step_size=0.3, epochs=4, num_workers=4, seed=0,
                           staleness=ConstantDelay(40)).fit(small_problem)
        assert fresh.curve.rmse[-1] <= stale.curve.rmse[-1] * 1.05

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ASGDSolver(num_workers=0)
        with pytest.raises(ValueError):
            ASGDSolver(async_mode="gpu")


class TestSVRGASGDSolver:
    def test_converges(self, small_problem):
        result = SVRGASGDSolver(step_size=0.1, epochs=3, num_workers=4, seed=0).fit(small_problem)
        assert result.curve.rmse[-1] < result.curve.rmse[0]

    def test_iterative_rate_beats_asgd(self, small_problem):
        """Per-epoch, variance reduction should not be worse than plain ASGD."""
        asgd = ASGDSolver(step_size=0.1, epochs=4, num_workers=4, seed=0).fit(small_problem)
        svrg = SVRGASGDSolver(step_size=0.1, epochs=4, num_workers=4, seed=0).fit(small_problem)
        assert svrg.curve.rmse[-1] <= asgd.curve.rmse[-1] * 1.1

    def test_absolute_time_much_slower_than_asgd(self, small_problem):
        """The paper's core claim: per-epoch wall-clock of SVRG-ASGD is far larger.

        The unit-test problem only has 80 features, so the dense/sparse cost
        gap is modest here; the full magnitude gap is exercised on the
        high-dimensional surrogate in tests/integration/test_paper_claims.py.
        """
        asgd = ASGDSolver(step_size=0.1, epochs=3, num_workers=4, seed=0).fit(small_problem)
        svrg = SVRGASGDSolver(step_size=0.1, epochs=3, num_workers=4, seed=0).fit(small_problem)
        assert svrg.curve.total_time > 1.5 * asgd.curve.total_time

    def test_dense_updates_recorded(self, small_problem):
        result = SVRGASGDSolver(step_size=0.1, epochs=2, num_workers=2, seed=0).fit(small_problem)
        assert result.trace.total_dense_coordinate_updates > 0

    def test_skip_dense_term_reduces_dense_cost(self, small_problem):
        faithful = SVRGASGDSolver(step_size=0.1, epochs=2, num_workers=2, seed=0).fit(small_problem)
        skipping = SVRGASGDSolver(step_size=0.1, epochs=2, num_workers=2, seed=0,
                                  skip_dense_term=True).fit(small_problem)
        assert (
            skipping.trace.total_dense_coordinate_updates
            < faithful.trace.total_dense_coordinate_updates
        )

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            SVRGASGDSolver(num_workers=0)


@pytest.mark.parametrize(
    "solver,async_mode",
    [("asgd", "per_sample"), ("asgd", "batched"), ("asgd", "process"), ("sgd", None)],
    ids=["per_sample", "batched", "process", "sgd"],
)
def test_initial_weights_of_the_wrong_shape_are_rejected(solver, async_mode):
    """Every tier refuses a start vector that does not match the model width
    instead of broadcasting it or handing it to a kernel."""
    from repro import Problem, load_dataset, make_solver
    from repro.objectives.logistic import LogisticObjective

    ds = load_dataset("news20_smoke", seed=0)
    problem = Problem(X=ds.X, y=ds.y, objective=LogisticObjective())
    d = problem.n_features
    kwargs = {"async_mode": async_mode, "num_workers": 2} if async_mode else {}
    model = make_solver(solver, epochs=1, seed=0, **kwargs)
    with pytest.raises(ValueError, match=rf"must have shape \({d},\)"):
        model.fit(problem, initial_weights=np.full(1, 0.5))


@pytest.mark.parametrize("async_mode", ["per_sample", "batched"])
@pytest.mark.parametrize(
    "solver,max_delay", [("asgd", 4), ("svrg_asgd", 4), ("is_asgd", 5)]
)
def test_default_delay_model_on_each_simulated_tier(small_problem, solver, max_delay, async_mode):
    """Without ``staleness=`` ASGD and SVRG-ASGD draw delays up to W - 1
    (``ExecutionRequest.resolved_staleness``) and IS-ASGD up to W
    (``ISASGDSolver.fit``), on both simulated tiers alike."""
    from repro.solvers.registry import make_solver

    model = make_solver(solver, step_size=0.1, epochs=1, num_workers=5, seed=0,
                        async_mode=async_mode)
    result = model.fit(small_problem)
    assert result.info["async_mode"] == async_mode
    assert result.info["max_delay"] == max_delay
