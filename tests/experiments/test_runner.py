"""Tests for the experiment runner."""

import time

import pytest

from repro.experiments import runner as runner_module
from repro.experiments.configs import ExperimentConfig, RunSpec, figure_config
from repro.experiments.runner import ExperimentRunner, build_problem, run_single


@pytest.fixture(scope="module")
def tiny_config():
    """A minimal two-run configuration on the smallest smoke dataset."""
    runs = [
        RunSpec(dataset="news20_smoke", solver="sgd", num_workers=1, step_size=0.5, epochs=2, seed=0),
        RunSpec(dataset="news20_smoke", solver="is_asgd", num_workers=4, step_size=0.5, epochs=2, seed=0),
        RunSpec(dataset="news20_smoke", solver="asgd", num_workers=4, step_size=0.5, epochs=2, seed=0),
    ]
    return ExperimentConfig(name="tiny", runs=runs, seed=0)


@pytest.fixture(scope="module")
def runner(tiny_config):
    r = ExperimentRunner(tiny_config)
    r.run()
    return r


class TestBuildProblem:
    def test_builds_logistic_l1_by_default(self):
        problem = build_problem("news20_smoke", seed=0)
        assert problem.n_samples > 0
        assert problem.objective.name == "logistic"

    def test_objective_override(self):
        problem = build_problem("news20_smoke", objective="squared_hinge_l2", seed=0)
        assert problem.objective.name == "squared_hinge"


class TestRunSingle:
    def test_produces_record(self):
        spec = RunSpec(dataset="news20_smoke", solver="sgd", num_workers=1,
                       step_size=0.5, epochs=2, seed=0)
        record = run_single(spec)
        assert record.solver == "sgd"
        assert len(record.curve) == 2
        assert record.info["measured_train_seconds"] > 0.0

    def test_measured_train_seconds_times_the_fit(self, monkeypatch):
        """A fit made 50 ms slower reads at least 50 ms, and never more
        than the whole call."""
        make_solver = runner_module.make_solver

        def slow_solver(*args, **kwargs):
            solver = make_solver(*args, **kwargs)
            fit = solver.fit

            def slow_fit(problem):
                time.sleep(0.05)
                return fit(problem)

            solver.fit = slow_fit
            return solver

        monkeypatch.setattr(runner_module, "make_solver", slow_solver)
        spec = RunSpec(dataset="news20_smoke", solver="sgd", num_workers=1,
                       step_size=0.5, epochs=1, seed=0)
        started = time.perf_counter()
        record = run_single(spec)
        wall = time.perf_counter() - started
        assert 0.05 <= record.info["measured_train_seconds"] <= wall

    def test_solver_kwargs_forwarded(self):
        spec = RunSpec(
            dataset="news20_smoke", solver="is_asgd", num_workers=2, step_size=0.5, epochs=1,
            seed=0, solver_kwargs=(("force_balancing", "shuffle"),),
        )
        record = run_single(spec)
        assert record.info["balancing_decision"] == "shuffle"


class TestExperimentRunner:
    def test_runs_all_specs(self, runner, tiny_config):
        assert len(runner.records) == len(tiny_config.runs)

    def test_problem_cache_shared(self, runner):
        assert runner.problem_for("news20_smoke") is runner.problem_for("news20_smoke")

    def test_find_and_get(self, runner):
        assert len(runner.find(solver="sgd")) == 1
        record = runner.get("news20_smoke", "is_asgd", 4)
        assert record.num_workers == 4
        with pytest.raises(LookupError):
            runner.get("news20_smoke", "does_not_exist")

    def test_summary_rows(self, runner):
        rows = runner.summary_rows()
        assert len(rows) == 3
        assert all("best_error_rate" in row for row in rows)

    def test_none_solver_skipped(self):
        cfg = ExperimentConfig(
            name="x",
            runs=[RunSpec(dataset="news20_smoke", solver="none", num_workers=1,
                          step_size=1.0, epochs=0)],
        )
        r = ExperimentRunner(cfg)
        assert r.run() == []
