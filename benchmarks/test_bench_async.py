"""Benchmark: batched vs per-sample asynchronous execution.

Measures the macro-step fast path (``async_mode="batched"``, PR 2) against
the per-sample ground-truth simulator on an async-scale workload: IS-ASGD —
the paper's headline solver — with 16 simulated workers, plus plain ASGD for
reference.  Both engines execute the identical schedule, delay sequence and
conflict accounting (the parity suite pins the traces exactly), so the ratio
is a pure execution-engine speedup, not a workload change.

Results are written to ``benchmarks/results/BENCH_async.json``; the
committed root ``BENCH_async.json`` is a copy of it, so the perf trajectory
across PRs has a recorded data point.  The acceptance gate requires the
batched engine to sustain at least 5x the per-sample iteration throughput.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.conftest import bench_environment, write_result
from repro.core.is_asgd import ISASGDSolver
from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import L2Regularizer
from repro.solvers.asgd import ASGDSolver
from repro.solvers.base import Problem
from repro.utils.timer import measure_call

#: Async-scale surrogate: large enough that per-iteration engine overhead —
#: not dataset prep or metrics — dominates the fit.
BENCH_SPEC = SyntheticSpec(
    n_samples=20_000,
    n_features=20_000,
    nnz_per_sample=30.0,
    feature_skew=1.2,
    norm_spread=0.8,
    label_noise=0.02,
    name="async_bench",
)

NUM_WORKERS = 16
EPOCHS = 1
BATCH_SIZE = 2048


def _bench_problem() -> Problem:
    X, y, _ = make_sparse_classification(BENCH_SPEC, seed=0)
    objective = LogisticObjective(regularizer=L2Regularizer(1e-4))
    return Problem(X=X, y=y, objective=objective, name=BENCH_SPEC.name)


def _timed_fit(solver_factory, problem):
    result = {}

    def call():
        result["fit"] = solver_factory().fit(problem)

    seconds = measure_call(call, repeats=2, warmup=0)
    return seconds, result["fit"]


@pytest.mark.benchmark(group="async")
def test_bench_async_engines(benchmark):
    """Per-sample vs batched engine on IS-ASGD and ASGD (identical traces)."""

    def measure():
        problem = _bench_problem()
        payload = {
            "dataset": {
                "name": problem.name,
                "n_samples": problem.n_samples,
                "n_features": problem.n_features,
                "nnz": problem.X.nnz,
            },
            "config": {
                "num_workers": NUM_WORKERS,
                "epochs": EPOCHS,
                "batch_size": BATCH_SIZE,
            },
            "environment": bench_environment(),
        }

        def is_asgd(mode, **kw):
            return lambda: ISASGDSolver(
                step_size=0.1, epochs=EPOCHS, num_workers=NUM_WORKERS, seed=0,
                record_every=10, async_mode=mode, **kw,
            )

        def asgd(mode, **kw):
            return lambda: ASGDSolver(
                step_size=0.1, epochs=EPOCHS, num_workers=NUM_WORKERS, seed=0,
                record_every=10, async_mode=mode, **kw,
            )

        for solver_name, factory in (("is_asgd", is_asgd), ("asgd", asgd)):
            t_per, r_per = _timed_fit(factory("per_sample"), problem)
            t_auto, r_auto = _timed_fit(factory("batched"), problem)
            t_block, r_block = _timed_fit(factory("batched", batch_size=BATCH_SIZE), problem)
            iters = r_per.trace.total_iterations
            assert r_auto.trace.total_iterations == iters
            assert r_block.trace.total_conflicts == r_per.trace.total_conflicts
            payload[solver_name] = {
                "iterations": iters,
                "conflicts": r_per.trace.total_conflicts,
                "per_sample_it_per_s": iters / t_per,
                "batched_auto_it_per_s": iters / t_auto,
                "batched_it_per_s": iters / t_block,
                "speedup_auto": t_per / t_auto,
                "speedup": t_per / t_block,
            }
        return payload

    payload = benchmark.pedantic(measure, rounds=1, iterations=1)
    text = json.dumps(payload, indent=2, default=float)
    print("\n" + text)
    write_result("BENCH_async.json", text)

    # Acceptance gate: the batched engine sustains >= 5x the per-sample
    # iteration throughput on the headline solver (typically ~7x here with
    # batch_size=2048 and ~6x with the auto block).
    assert payload["is_asgd"]["speedup"] >= 5.0
