"""End-to-end tests of the multi-process parameter-server cluster.

Acceptance for the subsystem: ``async_mode="process"`` runs asgd /
is_asgd / svrg_asgd end-to-end on >= 4 true process workers, produces
traces the metrics/experiments pipeline consumes unchanged, and converges
to within tolerance of the per-sample simulator on seeded problems.
"""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.cluster import ClusterDriver, compare_traces, default_start_method
from repro.core.balancing import random_order
from repro.core.is_asgd import ISASGDSolver
from repro.core.partition import partition_dataset
from repro.core.sampler import AliasSampler
from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.metrics.speedup import optimum_speedup, time_to_target
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import L2Regularizer
from repro.solvers.asgd import ASGDSolver
from repro.solvers.base import Problem
from repro.solvers.svrg_asgd import SVRGASGDSolver

NUM_WORKERS = 4


@pytest.fixture(scope="module")
def cluster_problem() -> Problem:
    spec = SyntheticSpec(
        n_samples=600, n_features=150, nnz_per_sample=8.0, label_noise=0.02, name="cluster_test"
    )
    X, y, _ = make_sparse_classification(spec, seed=7)
    objective = LogisticObjective(regularizer=L2Regularizer(1e-4))
    return Problem(X=X, y=y, objective=objective, name=spec.name)


def _partition(problem, workers=NUM_WORKERS, scheme="uniform"):
    L = problem.lipschitz_constants()
    order = random_order(problem.n_samples, seed=0)
    return partition_dataset(order, L, workers, scheme=scheme)


SOLVER_FACTORIES = {
    "asgd": lambda mode: ASGDSolver(
        step_size=0.2, epochs=3, num_workers=NUM_WORKERS, seed=5, async_mode=mode
    ),
    "is_asgd": lambda mode: ISASGDSolver(
        step_size=0.2, epochs=3, num_workers=NUM_WORKERS, seed=5, async_mode=mode
    ),
    "svrg_asgd": lambda mode: SVRGASGDSolver(
        step_size=0.2, epochs=3, num_workers=NUM_WORKERS, seed=5, async_mode=mode
    ),
}


class TestProcessModeSolvers:
    @pytest.mark.parametrize("solver_name", sorted(SOLVER_FACTORIES))
    def test_process_mode_end_to_end_with_tolerance(self, cluster_problem, solver_name):
        factory = SOLVER_FACTORIES[solver_name]
        reference = factory("per_sample").fit(cluster_problem)
        clustered = factory("process").fit(cluster_problem)

        assert clustered.info["async_mode"] == "process"
        assert clustered.info["num_workers"] == NUM_WORKERS
        # Valid measured trace: one event per epoch, real iteration counts.
        assert len(clustered.trace.epochs) == 3
        assert clustered.trace.total_iterations >= cluster_problem.n_samples
        # Measured wall-clock axis is strictly increasing and positive.
        wall = clustered.curve.wall_clock
        assert np.all(np.asarray(wall) > 0)
        assert np.all(np.diff(wall) > 0)

        # Convergence within tolerance of the per-sample simulator.
        obj, X, y = cluster_problem.objective, cluster_problem.X, cluster_problem.y
        loss_zero = obj.full_loss(np.zeros(cluster_problem.n_features), X, y)
        loss_ref = obj.full_loss(reference.weights, X, y)
        loss_cluster = obj.full_loss(clustered.weights, X, y)
        progress = loss_zero - loss_ref
        assert progress > 0
        assert loss_cluster < loss_zero
        assert abs(loss_cluster - loss_ref) <= 0.25 * progress

    def test_curves_feed_metrics_speedup(self, cluster_problem):
        result = ASGDSolver(
            step_size=0.2, epochs=3, num_workers=NUM_WORKERS, seed=5, async_mode="process"
        ).fit(cluster_problem)
        point = optimum_speedup(result.curve, result.curve)
        assert point.speedup == pytest.approx(1.0)
        assert time_to_target(result.curve, point.target) is not None

    def test_experiments_runner_accepts_process_mode(self):
        from repro.experiments.configs import RunSpec
        from repro.experiments.runner import run_single

        spec = RunSpec(
            dataset="news20_smoke",
            solver="is_asgd",
            num_workers=NUM_WORKERS,
            step_size=0.3,
            epochs=2,
            seed=0,
            solver_kwargs=(("async_mode", "process"),),
        )
        record = run_single(spec)
        assert record.info["async_mode"] == "process"
        assert record.curve.total_time > 0
        assert len(record.trace.epochs) == 2

    @pytest.mark.parametrize("solver_cls", [ASGDSolver, ISASGDSolver, SVRGASGDSolver],
                             ids=lambda cls: cls.name)
    def test_more_workers_than_samples_terminates(self, solver_cls):
        """Regression: partition_dataset caps shards at n_samples, so a
        fleet or barrier sized from the requested worker count would wait
        on workers that never exist.  Must terminate and keep every epoch."""
        spec = SyntheticSpec(n_samples=5, n_features=12, nnz_per_sample=3.0, name="tiny")
        X, y, _ = make_sparse_classification(spec, seed=0)
        problem = Problem(X=X, y=y, objective=LogisticObjective(), name="tiny")
        result = solver_cls(step_size=0.05, epochs=2, num_workers=8, seed=0,
                            async_mode="process").fit(problem)
        assert result.info["async_mode"] == "process"
        assert len(result.trace.epochs) == 2


class TestClusterDriver:
    def test_initial_weights_respected(self, cluster_problem):
        part = _partition(cluster_problem)
        w0 = np.full(cluster_problem.n_features, 0.01)
        driver = ClusterDriver(
            cluster_problem.X, cluster_problem.y, cluster_problem.objective, part,
            step_size=1e-12, seed=0,
        )
        res = driver.run(1, initial_weights=w0)
        # A vanishing step leaves the model essentially at w0.
        np.testing.assert_allclose(res.weights, w0, atol=1e-6)

    def test_measured_counters_are_populated(self, cluster_problem):
        part = _partition(cluster_problem)
        driver = ClusterDriver(
            cluster_problem.X, cluster_problem.y, cluster_problem.objective, part,
            step_size=0.1, seed=0,
        )
        res = driver.run(2)
        assert len(res.epoch_seconds) == 2
        assert all(s > 0 for s in res.epoch_seconds)
        assert len(res.epoch_mean_delay) == 2
        assert len(res.epoch_occupancy_skew) == 2
        assert res.trace.total_iterations == sum(e.iterations for e in res.trace.epochs)

    def test_trace_comparable_with_simulator(self, cluster_problem):
        part = _partition(cluster_problem)
        driver = ClusterDriver(
            cluster_problem.X, cluster_problem.y, cluster_problem.objective, part,
            step_size=0.1, seed=0,
        )
        measured = driver.run(2).trace
        simulated = (
            ASGDSolver(step_size=0.1, epochs=2, num_workers=NUM_WORKERS, seed=0)
            .fit(cluster_problem)
            .trace
        )
        summary = compare_traces(measured, simulated)
        assert summary["measured_iterations"] > 0
        assert summary["simulated_iterations"] > 0
        assert "conflict_rate_ratio" in summary

    def test_each_worker_process_builds_one_alias_table(self, cluster_problem, tmp_path, monkeypatch):
        if default_start_method() != "fork":
            pytest.skip("the build counter reaches the worker processes through fork")
        log = tmp_path / "builds"
        original = AliasSampler._build

        def logging_build(sampler, p):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            original(sampler, p)

        part = _partition(cluster_problem, scheme="lipschitz")
        monkeypatch.setattr(AliasSampler, "_build", logging_build)
        ClusterDriver(
            cluster_problem.X, cluster_problem.y, cluster_problem.objective, part,
            step_size=0.1, seed=0,
        ).run(3)
        pids = log.read_text().split()
        assert len(pids) == len(set(pids)) == NUM_WORKERS

    def test_single_worker_runs(self, cluster_problem):
        part = _partition(cluster_problem, workers=1)
        driver = ClusterDriver(
            cluster_problem.X, cluster_problem.y, cluster_problem.objective, part,
            step_size=0.1, seed=0,
        )
        res = driver.run(1)
        assert res.info["num_workers"] == 1
        assert res.info["mean_measured_delay"] == 0.0
        assert res.trace.total_conflicts == 0

    def test_invalid_arguments(self, cluster_problem):
        part = _partition(cluster_problem)
        with pytest.raises(ValueError):
            ClusterDriver(
                cluster_problem.X, cluster_problem.y, cluster_problem.objective, part,
                step_size=0.1, rule="newton",
            )
        driver = ClusterDriver(
            cluster_problem.X, cluster_problem.y, cluster_problem.objective, part,
            step_size=0.1,
        )
        with pytest.raises(ValueError):
            driver.run(0)


class _ExplodingObjective(LogisticObjective):
    """Raises inside the worker hot loop (fork-only test helper)."""

    def batch_grad_coeffs(self, margins, y):  # pragma: no cover - runs in child
        raise RuntimeError("boom")


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(), reason="needs fork")
class TestWorkerFailure:
    def test_worker_crash_raises_instead_of_hanging(self, cluster_problem):
        from repro.cluster import WorkerFailure

        part = _partition(cluster_problem, workers=2)
        driver = ClusterDriver(
            cluster_problem.X, cluster_problem.y, _ExplodingObjective(), part,
            step_size=0.1, seed=0, max_respawns=0,
        )
        with pytest.raises(RuntimeError, match="cluster worker") as excinfo:
            driver.run(1)
        # The failure names the culprit(s) and the cause, not just "failed".
        failure = excinfo.value
        assert isinstance(failure, WorkerFailure)
        assert failure.python_errors, "worker-side Python crash not attributed"
        assert "raised a Python exception" in str(failure)

    def test_failure_reports_worker_id_and_exit_code(self, cluster_problem):
        """A worker killed by signal is reported as 'worker N died with SIG…'."""
        from repro.cluster import WorkerFailure

        from tests.cluster.faults import PreBarrierKiller

        part = _partition(cluster_problem, workers=2)
        killer = PreBarrierKiller(victim=1)
        driver = ClusterDriver(
            cluster_problem.X, cluster_problem.y, cluster_problem.objective, part,
            step_size=0.1, seed=0, max_respawns=0,
            fault_hook=killer,
        )
        with pytest.raises(WorkerFailure, match=r"worker 1 died with SIGKILL"):
            driver.run(1)
        assert len(killer.strikes) == 1


class TestOccupancyAttribution:
    def test_write_fractions_follow_equal_coordinate_ranges(self):
        """Write occupancy is counted over one equal coordinate range per
        worker.  With d = 7 and 2 workers the ranges are [0, 3) and [3, 7).
        Every row writes one coordinate of the first range and two of the
        second (coordinate 3 included), whichever rows the workers draw, so
        the fractions are exactly 1/3 and 2/3 and every epoch's skew is
        2 * (1/9 + 4/9) - 1 = 1/9."""
        from repro.sparse.csr import CSRMatrix

        rows = [((k % 3, 3 + k % 4, 3 + (k + 1) % 4), (1.0, 1.0, 1.0)) for k in range(12)]
        X = CSRMatrix.from_rows(rows, n_cols=7)
        y = np.asarray([1.0, -1.0] * 6)
        obj = LogisticObjective()
        part = partition_dataset(np.arange(12), obj.lipschitz_constants(X, y), 2,
                                 scheme="uniform")
        res = ClusterDriver(X, y, obj, part, step_size=0.05, seed=0).run(2)
        np.testing.assert_allclose(res.shard_write_fractions, [1 / 3, 2 / 3])
        assert res.epoch_occupancy_skew == pytest.approx([1 / 9, 1 / 9])
        assert res.info["occupancy_skew"] == pytest.approx(1 / 9)
