"""Every execution tier reports each epoch once, in order, as it ends.

Solvers evaluate their convergence curve inside the epoch hook
(``ExecutionRequest.epoch_callback`` on the asynchronous tiers, the serial
``EpochEngine``'s ``on_epoch``), so no tier keeps a weight vector per epoch
and a fit's memory does not grow with its epoch count.
"""

import tracemalloc

import numpy as np
import pytest

from repro.metrics.convergence import MetricsRecorder
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import L2Regularizer
from repro.solvers.base import Problem
from repro.solvers.registry import make_solver
from repro.sparse.csr import CSRMatrix

#: The three asynchronous tiers, the two serial solvers, and SVRG-ASGD on the
#: two simulated tiers, which run its rule's own epoch hooks (the snapshot
#: and µ at the start of each epoch) around the report.
FITS = {
    "per_sample": ("asgd", {"async_mode": "per_sample", "num_workers": 2}),
    "batched": ("asgd", {"async_mode": "batched", "num_workers": 2}),
    "process": ("asgd", {"async_mode": "process", "num_workers": 2}),
    "sgd": ("sgd", {}),
    "is_sgd": ("is_sgd", {}),
    "svrg/per_sample": ("svrg_asgd", {"async_mode": "per_sample", "num_workers": 2}),
    "svrg/batched": ("svrg_asgd", {"async_mode": "batched", "num_workers": 2}),
}


def _fit(tier: str, problem: Problem, epochs: int):
    name, kwargs = FITS[tier]
    return make_solver(name, epochs=epochs, step_size=0.05, seed=3, **kwargs).fit(problem)


def _wide_problem(n_features: int, n_rows: int = 40, nnz: int = 6) -> Problem:
    """Few short rows over many features: the weight vector dominates memory."""
    rng = np.random.default_rng(0)
    rows = [
        (np.sort(rng.choice(n_features, size=nnz, replace=False)), rng.normal(size=nnz))
        for _ in range(n_rows)
    ]
    X = CSRMatrix.from_rows(rows, n_cols=n_features)
    y = np.where(rng.random(n_rows) < 0.5, -1.0, 1.0)
    return Problem(X=X, y=y, objective=LogisticObjective(regularizer=L2Regularizer(1e-3)))


@pytest.mark.parametrize("tier", list(FITS))
def test_each_epoch_is_evaluated_once_in_order(small_problem, monkeypatch, tier):
    seen = []
    record = MetricsRecorder.record

    def spy(self, *, epoch, weights, **kwargs):
        seen.append((epoch, weights))  # kept as handed over: the hook owns its copy
        return record(self, epoch=epoch, weights=weights, **kwargs)

    monkeypatch.setattr(MetricsRecorder, "record", spy)
    epochs = 4
    result = _fit(tier, small_problem, epochs)

    assert [epoch for epoch, _ in seen] == list(range(epochs))
    assert seen[-1][1].tobytes() == result.weights.tobytes()
    assert seen[0][1].tobytes() != seen[-1][1].tobytes()
    assert result.curve.epochs == list(range(epochs))
    cumulative = np.cumsum([e.iterations for e in result.trace.epochs]).tolist()
    assert result.curve.iterations == cumulative
    assert len(result.curve.wall_clock) == epochs


@pytest.mark.parametrize("tier", list(FITS))
def test_fit_memory_does_not_grow_with_epochs(tier):
    d = 100_000
    problem = _wide_problem(d)
    problem.lipschitz_constants()

    def peak_bytes(epochs: int) -> int:
        tracemalloc.start()
        try:
            _fit(tier, problem, epochs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _fit(tier, problem, 1)  # one-time allocations (imports, caches) stay off the peaks
    growth = peak_bytes(12) - peak_bytes(2)
    assert growth < d * 8, f"peak grew by {growth} bytes from 2 to 12 epochs"
