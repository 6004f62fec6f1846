"""Benchmark: the refactored execution runtime must not cost performance.

The runtime layer replaced the four hand-written copies of every update
rule with one registered definition behind the backend registry.  This
benchmark guards the two ways that refactor could have regressed:

1. **Engine throughput** — the batched engine (now executing the shared
   rule) must keep sustaining at least 5x the per-sample iteration
   throughput on IS-ASGD, the same gate PR 2 introduced for the original
   hand-specialised rule.  This runs on a smaller surrogate than
   ``test_bench_async`` (which still gates the full-size workload) so the
   runtime suite stays cheap.
2. **Rule-dispatch overhead** — the cluster worker now reaches its math
   through ``rule.block_entry_weights`` (a Python method call with keyword
   packing per macro-block) instead of inlined arithmetic.  The fixed
   per-call cost of that boundary, multiplied by the number of blocks a
   4-worker epoch executes, must stay below 5% of the *measured* epoch
   wall-clock.  The per-call cost is measured on near-empty blocks (one
   sample), which upper-bounds the dispatch overhead because it charges the
   whole call — argument packing, method lookup, the kwarg dance and the
   singleton arithmetic — as if it were pure overhead.

Results go to ``benchmarks/results/BENCH_runtime.json`` (the committed
root ``BENCH_runtime.json`` is a copy of it).  Gate 1 is always enforced;
gate 2's epoch time is only meaningful with >= 4 cores (the cluster
convention), so below that the measurement is recorded but the ratio is
not asserted.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from benchmarks.conftest import bench_environment, write_result
from repro.cluster import ClusterDriver, available_parallelism
from repro.core.balancing import random_order
from repro.core.is_asgd import ISASGDSolver
from repro.core.partition import partition_dataset
from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import L2Regularizer
from repro.rules import make_rule
from repro.solvers.base import Problem
from repro.utils.timer import measure_call

#: Async-scale surrogate: big enough that per-iteration engine overhead
#: dominates, small enough that the runtime suite adds little CI time.
BENCH_SPEC = SyntheticSpec(
    n_samples=8_000,
    n_features=8_000,
    nnz_per_sample=30.0,
    feature_skew=1.2,
    norm_spread=0.8,
    label_noise=0.02,
    name="runtime_bench",
)

NUM_WORKERS = 8
EPOCHS = 1
BATCH_SIZE = 1024
SPEEDUP_GATE = 5.0

CLUSTER_WORKERS = 4
CLUSTER_EPOCHS = 3
DISPATCH_GATE = 0.05
REQUIRED_CORES = 4


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


@pytest.mark.benchmark(group="runtime")
def test_bench_runtime_engines_and_dispatch(benchmark):
    """Batched-vs-per-sample throughput + cluster rule-dispatch overhead."""

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
                "speedup_gate": SPEEDUP_GATE,
                "cluster_workers": CLUSTER_WORKERS,
                "cluster_epochs": CLUSTER_EPOCHS,
                "dispatch_gate": DISPATCH_GATE,
            },
            "environment": bench_environment(),
        }

        # ---- gate 1: batched engine throughput on the shared rules ---- #
        def is_asgd(mode, **kw):
            return lambda: ISASGDSolver(
                step_size=0.1, epochs=EPOCHS, num_workers=NUM_WORKERS, seed=0,
                record_every=10, async_mode=mode, **kw,
            )

        t_per, r_per = _timed_fit(is_asgd("per_sample"), problem)
        t_block, r_block = _timed_fit(is_asgd("batched", batch_size=BATCH_SIZE), problem)
        iters = r_per.trace.total_iterations
        assert r_block.trace.total_iterations == iters
        assert r_block.trace.total_conflicts == r_per.trace.total_conflicts
        payload["is_asgd"] = {
            "iterations": iters,
            "per_sample_it_per_s": iters / t_per,
            "batched_it_per_s": iters / t_block,
            "speedup": t_per / t_block,
        }

        # ---- gate 2: rule-dispatch overhead on a 4-worker cluster epoch -- #
        X, y, objective = problem.X, problem.y, problem.objective
        L = problem.lipschitz_constants()
        order = random_order(X.n_rows, seed=0)
        partition = partition_dataset(order, L, CLUSTER_WORKERS, scheme="uniform")
        driver = ClusterDriver(X, y, objective, partition, step_size=0.1, seed=0)
        run = driver.run(CLUSTER_EPOCHS)
        # Steady-state epoch (start-up epoch excluded, cluster convention).
        epoch_seconds = (
            float(np.mean(run.epoch_seconds[1:]))
            if len(run.epoch_seconds) > 1
            else float(run.epoch_seconds[0])
        )
        iters_per_epoch = run.trace.epochs[-1].iterations
        block = driver.resolved_batch_size(
            max(1, X.n_rows // CLUSTER_WORKERS)
        )
        blocks_per_epoch = int(np.ceil(iters_per_epoch / block))

        # Fixed per-call cost of the rule boundary: a one-sample block
        # charges the entire call (kwarg packing, dispatch, singleton math)
        # as overhead — an upper bound on what the refactor added per block.
        rule = make_rule("sgd", objective, 0.1)
        w = np.zeros(X.n_cols)
        rows = np.array([0], dtype=np.int64)
        idx, val, lengths = X.gather_rows(rows)
        margins = np.zeros(1)
        step_weights = np.ones(1)
        y_rows = y[rows]
        calls = 2000
        start = time.perf_counter()
        for _ in range(calls):
            rule.block_entry_weights(
                w=w, rows=rows, y=y_rows, margins=margins,
                step_weights=step_weights, idx=idx, val=val, lengths=lengths,
            )
        per_call = (time.perf_counter() - start) / calls
        # Workers pay their dispatch cost concurrently: with enough cores a
        # wall-clock epoch absorbs only blocks/workers calls per lane, while
        # under time-sharing every call lands on the single lane.  Dividing
        # by the concurrency actually available keeps the fraction
        # comparable across machines.
        lanes = max(1, min(available_parallelism(), CLUSTER_WORKERS))
        dispatch_fraction = (per_call * blocks_per_epoch) / (
            max(epoch_seconds, 1e-12) * lanes
        )

        payload["cluster_dispatch"] = {
            "epoch_seconds": round(epoch_seconds, 6),
            "iterations_per_epoch": int(iters_per_epoch),
            "block_size": int(block),
            "blocks_per_epoch": blocks_per_epoch,
            "per_call_seconds": per_call,
            "parallel_lanes": lanes,
            "dispatch_fraction": dispatch_fraction,
        }
        return payload

    payload = benchmark.pedantic(measure, rounds=1, iterations=1)
    cores = payload["environment"]["available_parallelism"]
    payload["gated_dispatch"] = cores >= REQUIRED_CORES
    if not payload["gated_dispatch"]:
        payload["note"] = (
            f"cluster epoch measured under time-sharing on {cores} core(s); "
            f"the dispatch-fraction gate needs >= {REQUIRED_CORES} cores and "
            "is enforced by the CI bench job"
        )
    text = json.dumps(payload, indent=2, default=float)
    print("\n" + text)
    write_result("BENCH_runtime.json", text)

    # Gate 1: no regression vs the PR 2 batched-engine gate.
    assert payload["is_asgd"]["speedup"] >= SPEEDUP_GATE
    # Gate 2: rule dispatch adds < 5% to a 4-worker cluster epoch (cores
    # permitting; the measurement is recorded either way).
    if payload["gated_dispatch"]:
        assert payload["cluster_dispatch"]["dispatch_fraction"] < DISPATCH_GATE
