"""Unit tests for the execution-backend registry and its dispatch errors."""

import numpy as np
import pytest

from repro.runtime.backends import (
    BackendCapabilities,
    ExecutionBackend,
    ExecutionRequest,
    ExecutionResult,
    _BACKENDS,
    available_backend_names,
    backend_capabilities,
    backends_supporting,
    capability_matrix,
    execute,
    get_backend,
    register_backend,
    resolve_async_mode,
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
                "fault_tolerant", "rules",
            }

    def test_only_batched_advertises_fused_kernel_loop(self):
        assert backend_capabilities("batched").fused_kernel_loop
        for name in ("per_sample", "process"):
            assert not backend_capabilities(name).fused_kernel_loop

    def test_only_process_measures_wall_clock(self):
        assert backend_capabilities("process").measured_wall_clock
        for name in ("per_sample", "batched"):
            assert not backend_capabilities(name).measured_wall_clock

    def test_only_process_is_fault_tolerant(self):
        assert backend_capabilities("process").fault_tolerant
        for name in ("per_sample", "batched"):
            assert not backend_capabilities(name).fault_tolerant

    def test_every_builtin_backend_supports_every_rule(self):
        from repro.rules import available_rules

        for rule in available_rules():
            assert backends_supporting(rule) == available_backend_names()

    def test_unknown_backend_lists_valid_modes(self):
        with pytest.raises(ValueError, match="per_sample, batched, process"):
            get_backend("bogus")


class TestDispatchErrors:
    def test_unknown_mode_fails_at_dispatch(self, small_problem):
        with pytest.raises(ValueError, match="unknown async mode 'warp'.*per_sample"):
            execute("warp", _request(small_problem))

    def test_unknown_rule_fails_at_dispatch(self, small_problem):
        with pytest.raises(ValueError, match="unknown update rule 'adamw'.*sgd"):
            execute("per_sample", _request(small_problem, rule="adamw"))

    def test_unsupported_rule_backend_combination_lists_alternatives(self, small_problem):
        class SgdOnlyBackend(ExecutionBackend):
            capabilities = BackendCapabilities(
                name="sgd_only",
                description="test backend supporting sgd only",
                supports_batching=False,
                true_parallelism=False,
                measured_wall_clock=False,
                deterministic=True,
                supported_rules=("sgd",),
            )

        register_backend(SgdOnlyBackend())
        try:
            with pytest.raises(ValueError) as exc:
                execute("sgd_only", _request(small_problem, rule="svrg"))
            message = str(exc.value)
            assert "does not support update rule 'svrg'" in message
            # ... and tells the caller which modes do support it.
            assert "per_sample" in message and "process" in message
        finally:
            _BACKENDS.pop("sgd_only", None)

    def test_solver_surfaces_dispatch_error(self, small_problem):
        from repro.solvers.asgd import ASGDSolver

        with pytest.raises(ValueError, match="unknown async mode"):
            ASGDSolver(step_size=0.1, epochs=1, num_workers=2, async_mode="quantum")


class TestCustomRules:
    def _register_scaled_sgd(self):
        from repro.objectives.base import Objective
        from repro.rules import register_rule
        from repro.rules.sgd import SGDRule

        class HalfStepSGD(SGDRule):
            name = "half_sgd"

            def __init__(self, objective: Objective, step_size: float) -> None:
                super().__init__(objective, step_size / 2.0)

        register_rule("half_sgd", HalfStepSGD, description="sgd at half the step")
        return HalfStepSGD

    def test_custom_rule_runs_on_generic_tiers(self, small_problem):
        import repro.rules as rules

        self._register_scaled_sgd()
        try:
            assert backends_supporting("half_sgd") == ["per_sample", "batched"]
            result = execute("per_sample", _request(small_problem, rule="half_sgd"))
            assert result.trace.total_iterations > 0
        finally:
            rules._FACTORIES.pop("half_sgd", None)
            rules.RULE_DESCRIPTIONS.pop("half_sgd", None)

    def test_custom_rule_rejected_on_process_with_alternatives(self, small_problem):
        import repro.rules as rules

        self._register_scaled_sgd()
        try:
            with pytest.raises(ValueError) as exc:
                execute("process", _request(small_problem, rule="half_sgd"))
            message = str(exc.value)
            assert "'process' does not support update rule 'half_sgd'" in message
            assert "per_sample" in message  # the tiers that do run it
        finally:
            rules._FACTORIES.pop("half_sgd", None)
            rules.RULE_DESCRIPTIONS.pop("half_sgd", None)


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

    def test_custom_backend_is_dispatchable(self, small_problem):
        class EchoBackend(ExecutionBackend):
            capabilities = BackendCapabilities(
                name="echo",
                description="returns zeros without training",
                supports_batching=False,
                true_parallelism=False,
                measured_wall_clock=False,
                deterministic=True,
            )

            def run(self, request):
                from repro.async_engine.events import EpochEvent, ExecutionTrace

                trace = ExecutionTrace()
                trace.add_epoch(EpochEvent(epoch=0, iterations=1))
                w = np.zeros(request.X.n_cols)
                return ExecutionResult(weights=w, trace=trace, info={"async_mode": "echo"})

        register_backend(EchoBackend())
        try:
            assert "echo" in available_backend_names()
            result = execute("echo", _request(small_problem))
            assert result.info["async_mode"] == "echo"
            # The mode resolver sees the new backend too.
            assert resolve_async_mode("echo") == "echo"
        finally:
            _BACKENDS.pop("echo", None)
