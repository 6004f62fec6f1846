"""Occupancy statistics and trace comparison for the process cluster.

:mod:`repro.async_engine.cost_model` prices *simulated* traces; a process
run carries *measured* seconds instead, so nothing here prices a trace.
What the cluster needs from its measured counters is:

1. **Skew** — :func:`occupancy_skew` summarises how concentrated the
   coordinate writes are across parameter shards (reported per run as
   ``info["occupancy_skew"]``), and :func:`work_skew` applies the same
   statistic to per-worker iteration counts, which is what arms the
   driver's work stealing.

2. **Comparison** — :func:`compare_traces` lines a measured cluster trace
   up against a simulated one (same solver, same workload) so the
   simulator's staleness/conflict assumptions can be checked against what
   the hardware actually did.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.async_engine.events import ExecutionTrace


def occupancy_skew(shard_write_fractions: Sequence[float]) -> float:
    """Normalised write-concentration of the shards.

    ``num_shards * Σ_s f_s² - 1`` where ``f_s`` is shard ``s``'s fraction
    of all coordinate writes: 0.0 when writes spread evenly, growing to
    ``num_shards - 1`` when a single shard absorbs everything.  This is the
    collision-probability analogue of the simulator's conflict rate, at
    shard rather than coordinate granularity.
    """
    f = np.asarray(shard_write_fractions, dtype=np.float64)
    if f.size == 0 or f.sum() <= 0.0:
        return 0.0
    f = f / f.sum()
    return float(f.size * np.sum(f * f) - 1.0)


def work_skew(per_worker_iterations: Sequence[float]) -> float:
    """Normalised imbalance of the per-worker iteration counts.

    The same collision statistic as :func:`occupancy_skew`, applied over
    *workers* instead of shards: 0.0 when every worker performs the same
    number of iterations, growing to ``num_workers - 1`` when one worker
    does all the work.  The driver uses it to decide when straggler
    mitigation (work-stealing across the per-worker shard queues) is worth
    arming: a skewed partition — or a measured epoch where one worker fell
    behind — pushes the statistic over the stealing threshold.
    """
    return occupancy_skew(per_worker_iterations)


def compare_traces(measured: ExecutionTrace, simulated: ExecutionTrace) -> Dict[str, float]:
    """Side-by-side staleness/conflict summary of a measured vs simulated run.

    Both traces use the same :class:`EpochEvent` record type, so the
    cluster's *measured* counters can be checked against what the
    perturbed-iterate simulator *assumed* for the same workload — the
    empirical closure of the Section 3.1 model.
    """
    def _summary(trace: ExecutionTrace, prefix: str) -> Dict[str, float]:
        iters = max(trace.total_iterations, 1)
        stale = sum(e.stale_reads for e in trace.epochs)
        max_delay = max((e.max_observed_delay for e in trace.epochs), default=0)
        return {
            f"{prefix}_iterations": float(trace.total_iterations),
            f"{prefix}_conflict_rate": trace.conflict_rate(),
            f"{prefix}_stale_read_fraction": stale / iters,
            f"{prefix}_max_observed_delay": float(max_delay),
        }

    out = _summary(measured, "measured")
    out.update(_summary(simulated, "simulated"))
    sim_rate = out["simulated_conflict_rate"]
    out["conflict_rate_ratio"] = (
        out["measured_conflict_rate"] / sim_rate if sim_rate > 0 else float("inf")
    )
    return out


__all__ = [
    "occupancy_skew",
    "work_skew",
    "compare_traces",
]
