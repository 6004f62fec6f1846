"""Golden traces of the per-sample simulator, pinned as literals.

The parity suites compare the tiers with each other (``per_sample`` against
``batched``); that cannot catch both drifting together through code they
share, such as the epoch driver, the schedule or the delay draws.  This file
pins the ground truth itself on a 16-row problem written out below.

Integer counters compare exactly and step scales to a relative 1e-12: they
depend on seeds and row supports, not on the order in which a margin's
floats are summed, so an engine that sums in another order still passes.
"""

import numpy as np
import pytest

from repro.async_engine.simulator import AsyncSimulator
from repro.async_engine.staleness import ConstantDelay
from repro.async_engine.worker import build_workers
from repro.core.is_asgd import ISASGDSolver
from repro.core.partition import partition_dataset
from repro.objectives.registry import make_objective
from repro.rules.sgd import SGDRule
from repro.solvers.asgd import ASGDSolver
from repro.solvers.base import Problem
from repro.solvers.svrg_asgd import SVRGASGDSolver
from repro.sparse.csr import CSRMatrix

INDPTR = [0, 2, 5, 9, 13, 17, 19, 22, 25, 27, 29, 31, 33, 35, 38, 40, 43]
INDICES = [1, 7, 1, 3, 9, 1, 2, 4, 9, 4, 5, 6, 9, 1, 4, 7, 8, 2, 3, 2, 7, 8,
           5, 6, 7, 4, 8, 0, 7, 0, 7, 4, 9, 5, 8, 0, 1, 6, 7, 9, 3, 7, 9]
DATA = [3.67, -1.53, -0.06, 0.75, -1.85, -0.38, 0.46, 0.82, -0.2, 0.39, -0.67,
        -1.92, -0.81, 2.69, -0.7, -2.23, 1.15, 0.54, 1.04, 0.25, 1.1, -1.28,
        0.13, 0.53, -0.74, 1.88, 1.21, 0.61, 0.6, -0.25, 0.78, 0.34, -0.88,
        1.48, -1.57, 0.63, 1.26, 1.79, 0.47, -0.09, 0.57, 1.3, -1.6]
Y = [-1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0]

EPOCH_FIELDS = ("epoch", "iterations", "sparse_coordinate_updates",
                "dense_coordinate_updates", "conflicts", "stale_reads", "sample_draws",
                "max_observed_delay", "history_overflows")

#: ``trace.to_dict()`` of seeded 2-epoch, 4-worker ``per_sample`` fits,
#: one tuple of :data:`EPOCH_FIELDS` per epoch.
SOLVER_EPOCHS = {
    "asgd": [
        (0, 16, 45, 0, 9, 10, 16, 3, 0),
        (1, 16, 45, 0, 11, 12, 16, 3, 0),
    ],
    "is_asgd": [
        (0, 16, 43, 0, 14, 13, 16, 4, 0),
        (1, 16, 50, 0, 18, 12, 16, 4, 0),
    ],
    "svrg_asgd": [
        (0, 17, 133, 170, 11, 10, 0, 3, 0),
        (1, 17, 133, 170, 13, 12, 0, 3, 0),
    ],
    "svrg_asgd_skip_dense": [
        (0, 18, 133, 20, 9, 10, 0, 3, 0),
        (1, 18, 133, 20, 11, 12, 0, 3, 0),
    ],
}

#: The direct run of :func:`_direct_run`: its epochs and first 20 events
#: ``(global_step, worker_id, sample_index, delay, conflicts, grad_nnz,
#: step_scale)``.
DIRECT_EPOCHS = [
    (0, 16, 42, 0, 25, 16, 16, 5, 12),
    (1, 16, 42, 0, 23, 16, 16, 5, 16),
]
DIRECT_EVENTS = [
    (0, 2, 8, 5, 0, 2, 0.365192403798101),
    (1, 1, 4, 5, 1, 4, 0.3416455741328295),
    (2, 0, 0, 5, 1, 2, 0.408287381906942),
    (3, 1, 4, 5, 2, 4, 0.3416455741328295),
    (4, 2, 8, 5, 2, 2, 0.365192403798101),
    (5, 3, 13, 5, 2, 3, 0.7059950699071755),
    (6, 3, 12, 5, 2, 2, 0.786802738608804),
    (7, 0, 0, 5, 1, 2, 0.408287381906942),
    (8, 1, 4, 5, 3, 4, 0.3416455741328295),
    (9, 3, 15, 5, 2, 3, 0.8006180523706568),
    (10, 2, 8, 5, 1, 2, 0.365192403798101),
    (11, 2, 8, 5, 1, 2, 0.365192403798101),
    (12, 1, 6, 5, 3, 3, 1.6438814367559775),
    (13, 0, 0, 5, 1, 2, 0.408287381906942),
    (14, 3, 13, 5, 1, 3, 0.7059950699071755),
    (15, 0, 0, 5, 2, 2, 0.408287381906942),
    (16, 2, 8, 5, 0, 2, 0.365192403798101),
    (17, 2, 8, 5, 0, 2, 0.365192403798101),
    (18, 0, 0, 5, 0, 2, 0.408287381906942),
    (19, 0, 0, 5, 0, 2, 0.408287381906942),
]


@pytest.fixture(scope="module")
def golden_problem():
    X = CSRMatrix(np.array(DATA), np.array(INDICES), np.array(INDPTR), 10)
    return Problem(X=X, y=np.array(Y), objective=make_objective("logistic_l1", eta=1e-3),
                   name="golden")


def _epochs(rows):
    return {"epochs": [dict(zip(EPOCH_FIELDS, row)) for row in rows]}


@pytest.mark.parametrize("name", sorted(SOLVER_EPOCHS))
def test_solver_fit_trace(golden_problem, name):
    common = dict(step_size=0.2, epochs=2, num_workers=4, seed=3, async_mode="per_sample")
    solver = {
        "asgd": lambda: ASGDSolver(**common),
        "is_asgd": lambda: ISASGDSolver(**common),
        "svrg_asgd": lambda: SVRGASGDSolver(**common),
        "svrg_asgd_skip_dense": lambda: SVRGASGDSolver(skip_dense_term=True, **common),
    }[name]()
    trace = solver.fit(golden_problem).trace
    assert trace.to_dict() == _epochs(SOLVER_EPOCHS[name])


def _direct_run(problem):
    """Constant delay 5 over a 3-record history, so reads overflow it."""
    L = problem.lipschitz_constants()
    partition = partition_dataset(np.arange(problem.n_samples), L, 4, scheme="lipschitz")
    workers = build_workers(partition, 4, seed=5, importance_sampling=True)
    simulator = AsyncSimulator(
        X=problem.X, y=problem.y, workers=workers,
        update_rule=SGDRule(problem.objective, 0.2), staleness=ConstantDelay(5),
        seed=9, record_iterations=True, history=3,
    )
    return simulator.run(2).trace.to_dict()


def test_direct_run_trace_and_events(golden_problem):
    trace = _direct_run(golden_problem)
    assert trace["epochs"] == _epochs(DIRECT_EPOCHS)["epochs"]
    assert sum(e["history_overflows"] for e in trace["epochs"]) > 0
    assert len(trace["iterations"]) == 32
    for event, expected in zip(trace["iterations"][:20], DIRECT_EVENTS):
        *counters, scale = expected
        assert list(event) == ["global_step", "worker_id", "sample_index", "delay",
                               "conflicts", "grad_nnz", "step_scale"]
        assert list(event.values())[:-1] == counters
        assert event["step_scale"] == pytest.approx(scale, rel=1e-12, abs=0)
