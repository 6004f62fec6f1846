"""Parity suite: the batched engine against the per-sample ground truth.

The batched engine promises two things (see
:mod:`repro.async_engine.batched`):

* **exact trace replay** — for the same seed the schedule, the delay
  sequence and the per-iteration conflict accounting are identical to the
  per-sample simulator, so every `EpochEvent` counter matches exactly;
* **statistically faithful iterates** — block-granular reads perturb the
  trajectory within the modelled staleness scale, so final weights and
  losses stay close to (but not bitwise equal to) the per-sample run.

The suite pins both across all three async solvers × staleness models, plus
unit behaviour of :class:`BatchedSimulator` itself and the
``REPRO_ASYNC_MODE`` registry.
"""

import numpy as np
import pytest

from repro.async_engine.batched import BatchedSimulator
from repro.async_engine.staleness import ConstantDelay, GeometricDelay, UniformDelay
from repro.async_engine.worker import build_workers
from repro.core.is_asgd import ISASGDSolver
from repro.core.partition import partition_dataset
from repro.runtime import available_backend_names, default_async_mode, resolve_async_mode
from repro.rules.sgd import SGDRule
from repro.solvers.asgd import ASGDSolver
from repro.solvers.svrg_asgd import SVRGASGDSolver


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def _epoch_counters(trace):
    return [
        (
            e.epoch,
            e.iterations,
            e.sparse_coordinate_updates,
            e.dense_coordinate_updates,
            e.conflicts,
            e.stale_reads,
            e.sample_draws,
            e.max_observed_delay,
        )
        for e in trace.epochs
    ]


def _assert_trace_identical(per_sample, batched):
    assert _epoch_counters(per_sample.trace) == _epoch_counters(batched.trace)


def _assert_iterates_close(problem, per_sample, batched, *, rel_w=0.25, rel_loss=0.1):
    obj = problem.objective
    loss_p = obj.full_loss(per_sample.weights, problem.X, problem.y)
    loss_b = obj.full_loss(batched.weights, problem.X, problem.y)
    loss_0 = obj.full_loss(np.zeros(problem.n_features), problem.X, problem.y)
    assert loss_b < loss_0  # batched run genuinely optimises
    assert abs(loss_b - loss_p) <= rel_loss * loss_p
    denom = max(np.linalg.norm(per_sample.weights), 1e-12)
    assert np.linalg.norm(batched.weights - per_sample.weights) / denom <= rel_w


STALENESS_MODELS = [
    pytest.param(lambda: UniformDelay(3), id="uniform3"),
    pytest.param(lambda: ConstantDelay(2), id="constant2"),
    pytest.param(lambda: GeometricDelay(6), id="geometric6"),
]


def _solver_factories(staleness, mode):
    return {
        "asgd": ASGDSolver(
            step_size=0.1, epochs=3, num_workers=4, seed=7,
            staleness=staleness, async_mode=mode, batch_size=16,
        ),
        "is_asgd": ISASGDSolver(
            step_size=0.1, epochs=3, num_workers=4, seed=7,
            staleness=staleness, async_mode=mode, batch_size=16,
        ),
        "svrg_asgd": SVRGASGDSolver(
            step_size=0.05, epochs=3, num_workers=4, seed=7,
            staleness=staleness, async_mode=mode, batch_size=16,
        ),
    }


# --------------------------------------------------------------------- #
# Solver-level parity: traces exact, iterates close
# --------------------------------------------------------------------- #
class TestSolverParity:
    @pytest.mark.parametrize("solver_name", ["asgd", "is_asgd", "svrg_asgd"])
    @pytest.mark.parametrize("make_staleness", STALENESS_MODELS)
    def test_trace_and_iterates(self, small_problem, solver_name, make_staleness):
        per_sample = _solver_factories(make_staleness(), "per_sample")[solver_name].fit(small_problem)
        batched = _solver_factories(make_staleness(), "batched")[solver_name].fit(small_problem)
        _assert_trace_identical(per_sample, batched)
        _assert_iterates_close(small_problem, per_sample, batched)
        assert per_sample.info["async_mode"] == "per_sample"
        assert batched.info["async_mode"] == "batched"

    def test_svrg_skip_dense_parity(self, small_problem):
        def run(mode):
            return SVRGASGDSolver(
                step_size=0.05, epochs=3, num_workers=4, seed=7,
                staleness=UniformDelay(3), skip_dense_term=True,
                async_mode=mode, batch_size=16,
            ).fit(small_problem)

        per_sample, batched = run("per_sample"), run("batched")
        _assert_trace_identical(per_sample, batched)
        _assert_iterates_close(small_problem, per_sample, batched)

    @pytest.mark.parametrize("skip_dense", [True, False], ids=["skip_mu", "dense_mu"])
    def test_svrg_dense_record_support_replayed(self, skip_dense):
        """Dense records conflict only where the written delta is nonzero.

        A hinge full gradient µ is exactly zero on features whose samples
        are all strongly correctly classified, so a stale read touching only
        those coordinates must not count the dense record as a conflict —
        the replay has to use each record's own support, not assume a fully
        dense write (regression: several seeds diverged before the support
        masks were tracked per record).
        """
        from repro.objectives.hinge import HingeObjective
        from repro.sparse.csr import CSRMatrix

        def trace(run):
            return _epoch_counters(run.trace)

        for seed in range(12):
            rng = np.random.default_rng(seed)
            dense = rng.normal(size=(8, 4)) * (rng.random((8, 4)) < 0.6)
            X = CSRMatrix.from_dense(dense)
            y = np.sign(rng.normal(size=8))
            y[y == 0] = 1.0
            from repro.solvers.base import Problem
            problem = Problem(X=X, y=y, objective=HingeObjective(), name="hinge_tiny")

            def run(mode):
                return SVRGASGDSolver(
                    step_size=0.05, epochs=3, num_workers=2, seed=seed,
                    staleness=ConstantDelay(1), skip_dense_term=skip_dense,
                    async_mode=mode, batch_size=4,
                ).fit(problem)

            assert trace(run("per_sample")) == trace(run("batched")), f"seed {seed}"

    def test_conflict_rates_match(self, small_problem):
        per_sample = ASGDSolver(step_size=0.1, epochs=2, num_workers=8, seed=3,
                                async_mode="per_sample").fit(small_problem)
        batched = ASGDSolver(step_size=0.1, epochs=2, num_workers=8, seed=3,
                             async_mode="batched").fit(small_problem)
        assert per_sample.trace.total_conflicts == batched.trace.total_conflicts
        assert per_sample.info["conflict_rate"] == pytest.approx(batched.info["conflict_rate"])

    def test_kernel_backends_agree_in_batched_mode(self, small_problem):
        ref = ASGDSolver(step_size=0.1, epochs=2, num_workers=4, seed=1,
                         async_mode="batched", kernel="reference").fit(small_problem)
        vec = ASGDSolver(step_size=0.1, epochs=2, num_workers=4, seed=1,
                         async_mode="batched", kernel="vectorized").fit(small_problem)
        assert _epoch_counters(ref.trace) == _epoch_counters(vec.trace)
        np.testing.assert_allclose(ref.weights, vec.weights, rtol=1e-9, atol=1e-12)


# --------------------------------------------------------------------- #
# BatchedSimulator unit behaviour
# --------------------------------------------------------------------- #
def _make_batched(problem, num_workers=4, staleness=None, seed=0, **kwargs):
    partition = partition_dataset(
        np.arange(problem.n_samples), problem.lipschitz_constants(), num_workers,
        scheme="lipschitz",
    )
    iterations = max(1, problem.n_samples // num_workers)
    workers = build_workers(partition, iterations, seed=seed, importance_sampling=True)
    rule = SGDRule(objective=problem.objective, step_size=0.3)
    return BatchedSimulator(
        X=problem.X, y=problem.y, workers=workers, update_rule=rule,
        staleness=staleness, seed=seed, **kwargs,
    )


class TestBatchedSimulator:
    def test_epoch_count_and_iterations(self, small_problem):
        result = _make_batched(small_problem, batch_size=16).run(3)
        assert len(result.trace.epochs) == 3
        per_epoch = 4 * (small_problem.n_samples // 4)
        assert result.trace.total_iterations == 3 * per_epoch

    def test_reproducible(self, small_problem):
        r1 = _make_batched(small_problem, seed=5, batch_size=16).run(2)
        r2 = _make_batched(small_problem, seed=5, batch_size=16).run(2)
        np.testing.assert_allclose(r1.weights, r2.weights)
        assert _epoch_counters(r1.trace) == _epoch_counters(r2.trace)

    def test_epoch_callback(self, small_problem):
        calls = []
        sim = _make_batched(small_problem, batch_size=16)
        sim.epoch_callback = lambda epoch, w: calls.append((epoch, w))
        result = sim.run(2)
        assert [c[0] for c in calls] == [0, 1]
        np.testing.assert_allclose(calls[-1][1], result.weights)

    def test_initial_weights_respected(self, small_problem):
        init = np.full(small_problem.n_features, 0.01)
        result = _make_batched(small_problem, batch_size=16).run(1, initial_weights=init)
        assert not np.allclose(result.weights, 0.0)

    def test_zero_delay_has_no_conflicts(self, small_problem):
        result = _make_batched(small_problem, staleness=ConstantDelay(0), batch_size=16).run(2)
        assert result.trace.total_conflicts == 0
        assert all(e.stale_reads == 0 for e in result.trace.epochs)

    def test_record_iterations(self, small_problem):
        sim = _make_batched(small_problem, num_workers=2, batch_size=16)
        sim.record_iterations = True
        result = sim.run(1)
        assert result.trace.iterations is not None
        assert len(result.trace.iterations) == result.trace.total_iterations
        # Per-iteration conflicts must re-aggregate to the epoch totals.
        assert sum(ev.conflicts for ev in result.trace.iterations) == result.trace.total_conflicts

    def test_record_iterations_matches_per_sample(self, small_problem):
        """Per-iteration events (worker, sample, delay, conflicts) replay exactly."""
        from repro.async_engine.simulator import AsyncSimulator

        partition = partition_dataset(
            np.arange(small_problem.n_samples), small_problem.lipschitz_constants(), 4,
            scheme="lipschitz",
        )
        iterations = max(1, small_problem.n_samples // 4)

        workers_p = build_workers(partition, iterations, seed=9, importance_sampling=True)
        per_sample = AsyncSimulator(
            X=small_problem.X, y=small_problem.y, workers=workers_p,
            update_rule=SGDRule(objective=small_problem.objective, step_size=0.3),
            staleness=UniformDelay(3), seed=9, record_iterations=True,
        ).run(2)

        workers_b = build_workers(partition, iterations, seed=9, importance_sampling=True)
        batched = BatchedSimulator(
            X=small_problem.X, y=small_problem.y, workers=workers_b,
            update_rule=SGDRule(objective=small_problem.objective, step_size=0.3),
            staleness=UniformDelay(3), seed=9, batch_size=16, record_iterations=True,
        ).run(2)

        for ep, eb in zip(per_sample.trace.iterations, batched.trace.iterations):
            assert (ep.global_step, ep.worker_id, ep.sample_index, ep.delay,
                    ep.conflicts, ep.grad_nnz, ep.step_scale) == (
                eb.global_step, eb.worker_id, eb.sample_index, eb.delay,
                eb.conflicts, eb.grad_nnz, eb.step_scale)

    def test_auto_batch_size_scales_with_delay(self, small_problem):
        sim = _make_batched(small_problem, num_workers=4, staleness=UniformDelay(3))
        assert sim.resolved_batch_size() == 4 * (3 + 1)
        sim = _make_batched(small_problem, num_workers=4, staleness=UniformDelay(3), batch_size=64)
        assert sim.resolved_batch_size() == 64

    def test_validation(self, small_problem):
        rule = SGDRule(objective=small_problem.objective, step_size=0.1)
        with pytest.raises(ValueError):
            BatchedSimulator(X=small_problem.X, y=small_problem.y, workers=[], update_rule=rule)
        with pytest.raises(ValueError):
            _make_batched(small_problem, batch_size=0)
        with pytest.raises(ValueError):
            _make_batched(small_problem, batch_size="huge")
        with pytest.raises(ValueError):
            _make_batched(small_problem).run(0)


# --------------------------------------------------------------------- #
# Mode registry
# --------------------------------------------------------------------- #
class TestAsyncModeRegistry:
    def test_available_and_default(self):
        assert available_backend_names() == ["per_sample", "batched", "process"]
        assert default_async_mode() == "per_sample"

    def test_resolve(self):
        assert resolve_async_mode(None) == "per_sample"
        assert resolve_async_mode("batched") == "batched"
        assert resolve_async_mode("process") == "process"
        with pytest.raises(ValueError):
            resolve_async_mode("warp_speed")

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASYNC_MODE", "batched")
        assert default_async_mode() == "batched"
        monkeypatch.setenv("REPRO_ASYNC_MODE", "bogus")
        with pytest.raises(ValueError):
            default_async_mode()

    def test_solver_picks_up_env(self, small_problem, monkeypatch):
        monkeypatch.setenv("REPRO_ASYNC_MODE", "batched")
        solver = ASGDSolver(step_size=0.1, epochs=1, num_workers=2, seed=0)
        assert solver.async_mode == "batched"
        result = solver.fit(small_problem)
        assert result.info["async_mode"] == "batched"
