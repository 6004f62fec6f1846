"""Unit tests for the execution-backend registry and its dispatch errors."""

import numpy as np
import pytest

from repro.runtime.backends import (
    ExecutionRequest,
    ExecutionResult,
    available_backend_names,
    capability_matrix,
    execute,
    get_backend,
)


def _request(problem, rule="sgd", **overrides):
    from repro.core.partition import partition_dataset

    partition = partition_dataset(
        np.arange(problem.n_samples), problem.lipschitz_constants(), 2, scheme="uniform"
    )
    kwargs = dict(
        X=problem.X,
        y=problem.y,
        objective=problem.objective,
        partition=partition,
        rule=rule,
        step_size=0.1,
        epochs=1,
    )
    kwargs.update(overrides)
    return ExecutionRequest(**kwargs)


class TestRegistry:
    def test_three_builtin_backends_in_canonical_order(self):
        assert available_backend_names() == ["per_sample", "batched", "process"]

    def test_capability_matrix_shape(self):
        matrix = capability_matrix()
        assert [row["backend"] for row in matrix] == available_backend_names()
        for row in matrix:
            assert set(row) == {
                "backend", "description", "supports_batching", "true_parallelism",
                "measured_wall_clock", "deterministic", "fused_kernel_loop",
                "fault_tolerant",
            }

    def test_batched_and_process_advertise_fused_kernel_loop(self):
        for name in ("batched", "process"):
            assert get_backend(name).capabilities.fused_kernel_loop
        assert not get_backend("per_sample").capabilities.fused_kernel_loop

    def test_only_process_measures_wall_clock(self):
        assert get_backend("process").capabilities.measured_wall_clock
        for name in ("per_sample", "batched"):
            assert not get_backend(name).capabilities.measured_wall_clock

    def test_only_process_is_fault_tolerant(self):
        assert get_backend("process").capabilities.fault_tolerant
        for name in ("per_sample", "batched"):
            assert not get_backend(name).capabilities.fault_tolerant

    def test_unknown_backend_lists_valid_modes(self):
        with pytest.raises(ValueError, match="per_sample, batched, process"):
            get_backend("bogus")


class TestRequestDefaults:
    def _partitioned(self, problem, workers, **overrides):
        from repro.core.partition import partition_dataset

        partition = partition_dataset(
            np.arange(problem.n_samples), problem.lipschitz_constants(), workers,
            scheme="uniform",
        )
        return _request(problem, partition=partition, **overrides)

    @pytest.mark.parametrize("workers,max_delay", [(1, 0), (2, 1), (8, 7)])
    def test_default_delay_is_uniform_up_to_workers_minus_one(
        self, small_problem, workers, max_delay
    ):
        from repro.async_engine.staleness import UniformDelay

        staleness = self._partitioned(small_problem, workers).resolved_staleness()
        assert type(staleness) is UniformDelay
        assert staleness.max_delay == max_delay

    def test_explicit_staleness_passes_through(self, small_problem):
        from repro.async_engine.staleness import ConstantDelay

        model = ConstantDelay(3)
        request = self._partitioned(small_problem, 4, staleness=model)
        assert request.resolved_staleness() is model

    def test_default_iterations_split_the_samples(self, small_problem):
        request = self._partitioned(small_problem, 4)
        assert request.resolved_iterations_per_worker() == small_problem.n_samples // 4

    def test_explicit_iterations_are_at_least_one(self, small_problem):
        assert self._partitioned(
            small_problem, 2, iterations_per_worker=7
        ).resolved_iterations_per_worker() == 7
        assert self._partitioned(
            small_problem, 2, iterations_per_worker=0
        ).resolved_iterations_per_worker() == 1


class TestDispatchErrors:
    def test_unknown_mode_fails_at_dispatch(self, small_problem):
        with pytest.raises(ValueError, match="unknown async mode 'warp'.*per_sample"):
            execute("warp", _request(small_problem))

    def test_unknown_rule_fails_at_dispatch(self, small_problem):
        with pytest.raises(ValueError, match="unknown update rule 'adamw'.*sgd"):
            execute("per_sample", _request(small_problem, rule="adamw"))

    def test_solver_surfaces_dispatch_error(self, small_problem):
        from repro.solvers.asgd import ASGDSolver

        with pytest.raises(ValueError, match="unknown async mode"):
            ASGDSolver(step_size=0.1, epochs=1, num_workers=2, async_mode="quantum")


class TestExecute:
    def test_per_sample_execute_returns_result(self, small_problem):
        result = execute("per_sample", _request(small_problem))
        assert isinstance(result, ExecutionResult)
        assert result.weights.shape == (small_problem.n_features,)
        assert len(result.trace.epochs) == 1
        assert result.wall_clock is None
        assert result.info["async_mode"] == "per_sample"

    @pytest.mark.parametrize("mode", ["per_sample", "batched", "process"])
    def test_epoch_callback_fires_once_per_epoch_with_a_copy(self, small_problem, mode):
        calls = []
        request = _request(small_problem, epochs=3,
                           epoch_callback=lambda epoch, w: calls.append((epoch, w)))
        result = execute(mode, request)
        assert [epoch for epoch, _ in calls] == [0, 1, 2]
        # The callee keeps what it is handed: distinct copies, the last
        # equal to the final weights.
        assert calls[0][1].tobytes() != calls[-1][1].tobytes()
        assert calls[-1][1].tobytes() == result.weights.tobytes()
