"""Benchmark: true multi-process cluster speedup (wall-clock, measured).

Unlike every other benchmark in this repository, nothing here is
simulated: the cluster tier (``async_mode="process"``) runs real OS
processes over a sharded shared-memory parameter vector, so this is the
first measurement where the paper's speedup-vs-workers claim is exercised
against physical cores rather than the cost model.

Two measurements share ``BENCH_cluster.json`` (each merges its own section
into the file, so either can run alone):

* **speedup** — 4 process workers against 1 on the benchmark problem
  using *steady-state* epochs (the first epoch absorbs worker start-up
  and page-fault warm-up and is excluded): with >= 4 usable cores the
  4-worker configuration must be at least 2x faster;
* **recovery** — a worker SIGKILLed mid-epoch (the fault-injection
  harness of ``tests/cluster/faults.py``) against the same run
  uninterrupted: the wall-clock overhead of detection + restore +
  respawn + epoch replay must stay within half an epoch.

On smaller machines (both gates are meaningless under time-sharing) the
benchmarks still run end-to-end and record the measured numbers, but the
ratios are not asserted — CI runners provide the cores, so the gates are
enforced there.

Results are written to ``benchmarks/results/BENCH_cluster.json`` (the
committed root ``BENCH_cluster.json`` is a copy of it).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR, bench_environment, write_result
from repro.cluster import ClusterDriver, available_parallelism, occupancy_skew
from repro.core.balancing import random_order
from repro.core.partition import partition_dataset
from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import L2Regularizer

from tests.cluster.faults import FaultInjector, KillPoint

RESULTS_JSON = RESULTS_DIR / "BENCH_cluster.json"


def _merge_bench_cluster(section: str, payload: dict) -> dict:
    """Merge one section into ``benchmarks/results/BENCH_cluster.json``."""
    merged: dict = {}
    if RESULTS_JSON.exists():
        try:
            merged = json.loads(RESULTS_JSON.read_text())
        except json.JSONDecodeError:
            merged = {}
    merged = {k: v for k, v in merged.items() if k in ("speedup", "recovery")}
    merged[section] = payload
    text = json.dumps(merged, indent=2, sort_keys=True)
    write_result("BENCH_cluster.json", text)
    return merged

#: Cluster-scale surrogate: enough per-epoch NumPy work that the kernel
#: batch primitives — not process management — dominate each epoch.
BENCH_SPEC = SyntheticSpec(
    n_samples=40_000,
    n_features=30_000,
    nnz_per_sample=40.0,
    feature_skew=1.2,
    norm_spread=0.8,
    label_noise=0.02,
    name="cluster_bench",
)

EPOCHS = 6
WORKER_COUNTS = (1, 4)
SPEEDUP_GATE = 2.0
REQUIRED_CORES = 4


def _steady_state_seconds(epoch_seconds) -> float:
    """Total wall-clock excluding the start-up epoch."""
    return float(sum(epoch_seconds[1:])) if len(epoch_seconds) > 1 else float(sum(epoch_seconds))


@pytest.mark.benchmark(group="cluster")
def test_bench_cluster_speedup(benchmark):
    """4 process workers vs 1 on the shared benchmark problem (measured)."""

    def measure():
        X, y, _ = make_sparse_classification(BENCH_SPEC, seed=0)
        objective = LogisticObjective(regularizer=L2Regularizer(1e-4))
        L = objective.lipschitz_constants(X, y)
        order = random_order(X.n_rows, seed=0)
        cores = available_parallelism()

        payload = {
            "dataset": {
                "name": BENCH_SPEC.name,
                "n_samples": X.n_rows,
                "n_features": X.n_cols,
                "nnz": X.nnz,
            },
            "config": {
                "epochs": EPOCHS,
                "worker_counts": list(WORKER_COUNTS),
                "speedup_gate": SPEEDUP_GATE,
                "required_cores": REQUIRED_CORES,
            },
            "environment": bench_environment(),
            "runs": {},
        }

        seconds = {}
        for workers in WORKER_COUNTS:
            partition = partition_dataset(order, L, workers, scheme="uniform")
            driver = ClusterDriver(
                X, y, objective, partition, step_size=0.1, seed=0
            )
            run = driver.run(EPOCHS)
            steady = _steady_state_seconds(run.epoch_seconds)
            seconds[workers] = steady
            payload["runs"][str(workers)] = {
                "epoch_seconds": [round(s, 6) for s in run.epoch_seconds],
                "steady_state_seconds": round(steady, 6),
                "conflict_rate": run.trace.conflict_rate(),
                "mean_measured_delay": run.info["mean_measured_delay"],
                "occupancy_skew": run.info["occupancy_skew"],
                "final_loss": objective.full_loss(run.weights, X, y),
            }

        speedup = seconds[1] / seconds[4] if seconds[4] > 0 else float("inf")
        gated = cores >= REQUIRED_CORES
        payload["speedup_4_over_1"] = round(speedup, 4)
        payload["gated"] = gated
        if not gated:
            payload["note"] = (
                f"measured under time-sharing on {cores} core(s); the >=2x "
                f"gate needs >= {REQUIRED_CORES} cores and is enforced by the "
                "CI bench job — the ratio recorded here is NOT a parallel "
                "speedup measurement"
            )

        _merge_bench_cluster("speedup", payload)
        return payload

    payload = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Sanity on any machine: the cluster ran end-to-end at both worker
    # counts and genuinely optimised.
    zero_loss = float(np.log(2.0))
    for workers in WORKER_COUNTS:
        run = payload["runs"][str(workers)]
        assert len(run["epoch_seconds"]) == EPOCHS
        assert run["final_loss"] < zero_loss

    # The wall-clock gate needs real cores; CI runners have them.
    if payload["gated"]:
        assert payload["speedup_4_over_1"] >= SPEEDUP_GATE, (
            f"4-worker cluster speedup {payload['speedup_4_over_1']:.2f}x "
            f"below the {SPEEDUP_GATE}x gate"
        )
    else:
        pytest.skip(
            f"speedup gate requires >= {REQUIRED_CORES} cores "
            f"(have {payload['environment']['available_parallelism']}); "
            f"measured {payload['speedup_4_over_1']:.2f}x"
        )


#: Recovery benchmark scale: small enough that the two runs (clean +
#: killed) finish quickly, large enough that an epoch dwarfs process
#: management noise.
RECOVERY_SPEC = SyntheticSpec(
    n_samples=12_000,
    n_features=10_000,
    nnz_per_sample=30.0,
    feature_skew=1.2,
    label_noise=0.02,
    name="cluster_recovery_bench",
)

RECOVERY_EPOCHS = 3
RECOVERY_WORKERS = 4
#: Detection + restore + respawn + replay must cost at most this fraction
#: of one steady-state epoch (the ISSUE acceptance bound).
RECOVERY_OVERHEAD_GATE = 0.5


@pytest.mark.benchmark(group="cluster")
def test_bench_cluster_recovery_overhead(benchmark):
    """Wall-clock cost of one mid-epoch SIGKILL + automatic recovery."""

    def measure():
        X, y, _ = make_sparse_classification(RECOVERY_SPEC, seed=0)
        objective = LogisticObjective(regularizer=L2Regularizer(1e-4))
        L = objective.lipschitz_constants(X, y)
        order = random_order(X.n_rows, seed=0)
        partition = partition_dataset(order, L, RECOVERY_WORKERS, scheme="uniform")
        cores = available_parallelism()

        def timed_run(fault_hook=None):
            driver = ClusterDriver(
                X, y, objective, partition,
                step_size=0.1, seed=0, fault_hook=fault_hook,
            )
            started = time.perf_counter()
            run = driver.run(RECOVERY_EPOCHS)
            return run, time.perf_counter() - started

        clean, clean_wall = timed_run()
        injector = FaultInjector(kill_point=KillPoint(epoch=1, fraction=0.25))
        killed, killed_wall = timed_run(fault_hook=injector)

        # The kill lands in a non-final epoch, so recovery is mandatory.
        assert len(injector.strikes) == 1, "harness failed to strike"
        assert killed.info["respawns"] >= 1, "no recovery was observed"

        per_epoch = _steady_state_seconds(clean.epoch_seconds) / max(
            len(clean.epoch_seconds) - 1, 1
        )
        overhead = killed_wall - clean_wall
        gated = cores >= REQUIRED_CORES
        payload = {
            "dataset": {
                "name": RECOVERY_SPEC.name,
                "n_samples": X.n_rows,
                "n_features": X.n_cols,
                "nnz": X.nnz,
            },
            "config": {
                "epochs": RECOVERY_EPOCHS,
                "workers": RECOVERY_WORKERS,
                "kill_point": "1:0.25",
                "overhead_gate_epochs": RECOVERY_OVERHEAD_GATE,
                "required_cores": REQUIRED_CORES,
            },
            "environment": bench_environment(),
            "clean_wall_seconds": round(clean_wall, 6),
            "killed_wall_seconds": round(killed_wall, 6),
            "per_epoch_seconds": round(per_epoch, 6),
            "recovery_overhead": round(overhead, 6),
            "recovery_overhead_epochs": (
                round(overhead / per_epoch, 4) if per_epoch > 0 else None
            ),
            "respawns": killed.info["respawns"],
            "final_loss_clean": objective.full_loss(clean.weights, X, y),
            "final_loss_killed": objective.full_loss(killed.weights, X, y),
            "gated": gated,
        }
        if not gated:
            payload["note"] = (
                f"measured under time-sharing on {cores} core(s); the "
                f"<= {RECOVERY_OVERHEAD_GATE} epoch overhead gate needs "
                f">= {REQUIRED_CORES} cores and is enforced by the CI "
                "bench job"
            )
        _merge_bench_cluster("recovery", payload)
        return payload

    payload = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Sanity on any machine: both runs completed and genuinely optimised.
    zero_loss = float(np.log(2.0))
    assert payload["final_loss_clean"] < zero_loss
    assert payload["final_loss_killed"] < zero_loss

    if payload["gated"]:
        limit = RECOVERY_OVERHEAD_GATE * payload["per_epoch_seconds"]
        assert payload["recovery_overhead"] <= limit, (
            f"recovery overhead {payload['recovery_overhead']:.3f}s exceeds "
            f"{RECOVERY_OVERHEAD_GATE} of an epoch ({limit:.3f}s)"
        )
    else:
        pytest.skip(
            f"recovery overhead gate requires >= {REQUIRED_CORES} cores "
            f"(have {payload['environment']['available_parallelism']}); "
            f"measured {payload['recovery_overhead']:.3f}s "
            f"({payload['recovery_overhead_epochs']} epochs)"
        )
