"""Tests for the perturbed-iterate asynchronous simulator."""

import numpy as np
import pytest

from repro.async_engine.simulator import AsyncSimulator
from repro.async_engine.staleness import ConstantDelay, UniformDelay
from repro.async_engine.worker import build_workers
from repro.core.partition import partition_dataset
from repro.rules.sgd import SGDRule


def _make_simulator(problem, num_workers=4, staleness=None, seed=0, importance=True):
    L = problem.lipschitz_constants()
    partition = partition_dataset(np.arange(problem.n_samples), L, num_workers,
                                  scheme="lipschitz" if importance else "uniform")
    iterations = max(1, problem.n_samples // num_workers)
    workers = build_workers(partition, iterations, seed=seed, importance_sampling=importance)
    rule = SGDRule(objective=problem.objective, step_size=0.3)
    return AsyncSimulator(
        X=problem.X,
        y=problem.y,
        workers=workers,
        update_rule=rule,
        staleness=staleness,
        seed=seed,
    )


class TestRun:
    def test_epoch_count_and_iterations(self, small_problem):
        sim = _make_simulator(small_problem, num_workers=4)
        result = sim.run(3)
        assert len(result.trace.epochs) == 3
        per_epoch = 4 * (small_problem.n_samples // 4)
        assert result.trace.total_iterations == 3 * per_epoch

    def test_weights_move_and_loss_drops(self, small_problem):
        sim = _make_simulator(small_problem)
        result = sim.run(4)
        assert np.linalg.norm(result.weights) > 0.0
        obj = small_problem.objective
        assert obj.full_loss(result.weights, small_problem.X, small_problem.y) < obj.full_loss(
            np.zeros(small_problem.n_features), small_problem.X, small_problem.y
        )

    def test_epoch_callback_invoked(self, small_problem):
        calls = []
        sim = _make_simulator(small_problem)
        sim.epoch_callback = lambda epoch, w: calls.append((epoch, w))
        result = sim.run(3)
        assert [c[0] for c in calls] == [0, 1, 2]
        np.testing.assert_allclose(calls[-1][1], result.weights)

    def test_reproducible(self, small_problem):
        r1 = _make_simulator(small_problem, seed=5).run(2)
        r2 = _make_simulator(small_problem, seed=5).run(2)
        np.testing.assert_allclose(r1.weights, r2.weights)

    def test_initial_weights_respected(self, small_problem):
        init = np.full(small_problem.n_features, 0.01)
        sim = _make_simulator(small_problem)
        result = sim.run(1, initial_weights=init)
        assert not np.allclose(result.weights, 0.0)

    def test_invalid_epochs(self, small_problem):
        with pytest.raises(ValueError):
            _make_simulator(small_problem).run(0)

    def test_record_iterations(self, small_problem):
        sim = _make_simulator(small_problem, num_workers=2)
        sim.record_iterations = True
        result = sim.run(1)
        assert result.trace.iterations is not None
        assert len(result.trace.iterations) == result.trace.total_iterations


class TestStalenessEffects:
    def test_zero_delay_has_no_conflicts(self, small_problem):
        sim = _make_simulator(small_problem, staleness=ConstantDelay(0))
        result = sim.run(2)
        assert result.trace.total_conflicts == 0

    def test_larger_delay_more_conflicts(self, small_problem):
        low = _make_simulator(small_problem, staleness=ConstantDelay(1), seed=0).run(2)
        high = _make_simulator(small_problem, staleness=ConstantDelay(12), seed=0).run(2)
        assert high.trace.total_conflicts > low.trace.total_conflicts

    def test_more_workers_more_conflicts_with_default_delay(self, small_problem):
        few = _make_simulator(small_problem, num_workers=2, seed=0).run(2)
        many = _make_simulator(small_problem, num_workers=12, seed=0).run(2)
        assert many.trace.conflict_rate() >= few.trace.conflict_rate()

    def test_high_staleness_degrades_convergence(self, small_problem):
        obj = small_problem.objective
        fresh = _make_simulator(small_problem, staleness=ConstantDelay(0), seed=0).run(3)
        stale = _make_simulator(small_problem, staleness=ConstantDelay(30), seed=0).run(3)
        loss_fresh = obj.full_loss(fresh.weights, small_problem.X, small_problem.y)
        loss_stale = obj.full_loss(stale.weights, small_problem.X, small_problem.y)
        assert loss_fresh <= loss_stale * 1.05


class TestValidation:
    def test_requires_workers(self, small_problem):
        rule = SGDRule(objective=small_problem.objective, step_size=0.1)
        with pytest.raises(ValueError):
            AsyncSimulator(X=small_problem.X, y=small_problem.y, workers=[], update_rule=rule)

    def test_mismatched_labels(self, small_problem):
        sim = _make_simulator(small_problem)
        with pytest.raises(ValueError):
            AsyncSimulator(
                X=small_problem.X,
                y=small_problem.y[:-1],
                workers=sim.workers,
                update_rule=sim.update_rule,
            )
