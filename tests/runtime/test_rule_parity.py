"""Cross-tier rule-parity suite: every rule × every backend.

The runtime layer's core promise is that one update-rule definition behaves
identically — up to each tier's documented guarantee — on every backend.
This suite enumerates the *registries* (rules × backends × objectives), so
a rule or backend added to its table is covered automatically:

* deterministic backends (``per_sample`` vs ``batched``) are compared by
  **exact trace equality**, conflict replay included;
* the real-concurrency backend (``process``) is validated by
  **statistical tolerance**: the run must genuinely optimise and land
  within a loss band of the per-sample ground truth.

Objectives cover the paper's three loss families: logistic, hinge and
least squares.
"""

import numpy as np
import pytest

from repro.core.partition import partition_dataset
from repro.objectives.registry import make_objective
from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.rules import available_rules
from repro.runtime import ExecutionRequest, execute
from repro.solvers.base import Problem

OBJECTIVES = ["logistic", "hinge", "least_squares"]

#: Small but non-trivial: enough samples for real conflicts, two workers so
#: the process tier spawns real processes without dominating suite runtime.
SPEC = SyntheticSpec(
    n_samples=120, n_features=40, nnz_per_sample=5.0, label_noise=0.02, name="rule_parity"
)
NUM_WORKERS = 2
EPOCHS = 2
STEP_SIZE = 0.05
#: Least squares has the largest per-sample curvature of the three losses;
#: the VR rules need a smaller step there to stay in the stable regime.
STEP_BY_OBJECTIVE = {"logistic": 0.05, "hinge": 0.05, "least_squares": 0.01}


@pytest.fixture(scope="module")
def problems():
    X, y, _ = make_sparse_classification(SPEC, seed=5)
    return {
        name: Problem(X=X, y=y, objective=make_objective(name), name=f"parity_{name}")
        for name in OBJECTIVES
    }


def _run(problem, rule, mode):
    partition = partition_dataset(
        np.arange(problem.n_samples), problem.lipschitz_constants(), NUM_WORKERS,
        scheme="lipschitz" if rule == "is_sgd" else "uniform",
    )
    request = ExecutionRequest(
        X=problem.X,
        y=problem.y,
        objective=problem.objective,
        partition=partition,
        rule=rule,
        step_size=STEP_BY_OBJECTIVE.get(problem.objective.name, STEP_SIZE),
        epochs=EPOCHS,
        worker_seed=13,
        engine_seed=17,
        importance_sampling=rule == "is_sgd",
        batch_size=16,
    )
    return execute(mode, request)


def _counters(trace):
    return [
        {
            "epoch": e.epoch,
            "iterations": e.iterations,
            "sparse": e.sparse_coordinate_updates,
            "dense": e.dense_coordinate_updates,
            "stale_reads": e.stale_reads,
            "sample_draws": e.sample_draws,
            "max_delay": e.max_observed_delay,
            "conflicts": e.conflicts,
            "history_overflows": e.history_overflows,
        }
        for e in trace.epochs
    ]


def _loss(problem, weights):
    return problem.objective.full_loss(weights, problem.X, problem.y)


ALL_RULES = available_rules()


class TestRegistryCoverage:
    def test_all_four_rules_registered(self):
        assert set(ALL_RULES) >= {"sgd", "is_sgd", "svrg", "svrg_skip_dense"}


class TestDeterministicTierParity:
    """per_sample vs batched: exact traces for every rule."""

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_batched_parity(self, problems, rule, objective):
        problem = problems[objective]
        reference = _run(problem, rule, "per_sample")
        batched = _run(problem, rule, "batched")

        assert _counters(reference.trace) == _counters(batched.trace)

        loss_ref = _loss(problem, reference.weights)
        loss_bat = _loss(problem, batched.weights)
        loss_zero = _loss(problem, np.zeros(problem.n_features))
        assert loss_ref < loss_zero
        assert loss_bat < loss_zero
        assert abs(loss_bat - loss_ref) <= 0.15 * max(loss_ref, 1e-12)

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_deterministic_backends_reproducible(self, problems, rule):
        problem = problems["logistic"]
        a = _run(problem, rule, "per_sample")
        b = _run(problem, rule, "per_sample")
        np.testing.assert_array_equal(a.weights, b.weights)
        assert _counters(a.trace) == _counters(b.trace)


class TestConcurrentTierTolerance:
    """process: the run optimises and lands near the ground truth."""

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("mode", ["process"])
    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_tolerance_parity(self, problems, rule, mode, objective):
        problem = problems[objective]
        reference = _run(problem, rule, "per_sample")
        concurrent = _run(problem, rule, mode)

        assert concurrent.info["async_mode"] == mode
        assert len(concurrent.trace.epochs) == EPOCHS
        assert concurrent.trace.total_iterations > 0
        if mode == "process":
            assert concurrent.wall_clock is not None
            assert concurrent.wall_clock.shape == (EPOCHS,)

        loss_zero = _loss(problem, np.zeros(problem.n_features))
        loss_ref = _loss(problem, reference.weights)
        loss_con = _loss(problem, concurrent.weights)
        progress = loss_zero - loss_ref
        assert progress > 0
        # The concurrent run genuinely optimises ...
        assert loss_con < loss_zero
        # ... and its gap to the ground truth is small relative to the
        # progress the reference made from the zero initialisation.
        assert abs(loss_con - loss_ref) <= 0.35 * progress

