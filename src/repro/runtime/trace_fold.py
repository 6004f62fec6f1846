"""Shared trace/counter folding for every execution backend.

Each execution tier used to re-implement the same three pieces of
bookkeeping: building the randomised worker interleaving, folding iteration
counters into :class:`~repro.async_engine.events.EpochEvent` records with
the rule's multipliers applied, and (for the cluster tier) collapsing the
per-worker shared-memory counter rows into one epoch event.  This module is
the single home for that machinery; the simulated tiers' epoch driver and
bodies and the cluster driver all fold through it, so a new counter is
added in exactly one place.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.async_engine.events import EpochEvent


def build_schedule(workers: Sequence, rng: np.random.Generator) -> np.ndarray:
    """The randomised round-robin interleaving of one epoch.

    Every worker contributes ``iterations_per_epoch`` slots; the shuffled
    order models the unpredictable scheduling of lock-free threads.  The
    epoch driver both simulated tiers share draws its schedule here.
    """
    schedule = np.concatenate(
        [np.full(w.iterations_per_epoch, w.worker_id, dtype=np.int64) for w in workers]
    )
    rng.shuffle(schedule)
    return schedule


def fold_block(
    event: EpochEvent,
    rule,
    *,
    iterations: int,
    support_nnz: int,
    conflicts: int,
    delays: np.ndarray,
    history_overflows: int = 0,
) -> None:
    """Fold ``iterations`` inner iterations (a macro-step or an epoch) in bulk.

    The rule's trace metadata prices the traffic: ``grad_nnz_multiplier``
    scales the summed support sizes (two margin evaluations for VR rules),
    a rule with a ``dense_delta`` writes its full dimension every iteration
    (as ``SharedModel.apply_dense_update`` does) and ``counts_sample_draws``
    decides whether each iteration drew a weighted sample.  ``delays`` (one
    entry per iteration) yields the stale-read count and the epoch's running
    maximum delay.
    """
    n = int(iterations)
    dense = rule.dense_delta
    event.merge_bulk(
        iterations=n,
        grad_nnz=rule.grad_nnz_multiplier * int(support_nnz),
        dense_coords=0 if dense is None else int(dense.shape[0]) * n,
        conflicts=int(conflicts),
        sample_draws=n if rule.counts_sample_draws else 0,
        stale_reads=int(np.count_nonzero(delays > 0)),
        max_delay=int(delays.max(initial=0)),
        history_overflows=int(history_overflows),
    )


def fold_sync_step(event: EpochEvent, *, nnz: int, dim: int) -> None:
    """Fold a once-per-epoch sync step (snapshot + full gradient / table init).

    By convention a sync step is priced as one iteration touching the full
    dataset (``nnz`` sparse reads) and one dense pass over the model — the
    costing the VR solvers have always used for Algorithm 1's lines 4-6.
    """
    event.merge_bulk(iterations=1, grad_nnz=int(nnz), dense_coords=int(dim))


def fold_worker_counters(
    event: EpochEvent,
    delta: np.ndarray,
    *,
    max_delay: int,
) -> int:
    """Fold the cluster tier's measured per-worker counter rows.

    ``delta`` is one epoch's shared-memory counter matrix (one row per
    worker, columns as laid out in :mod:`repro.cluster.worker`; the driver
    zeroes it at every end barrier).  Returns the epoch's iteration total so
    the driver can derive per-iteration means without re-summing.
    """
    from repro.cluster.worker import (
        COL_CONFLICTS,
        COL_DENSE_WRITES,
        COL_ITERATIONS,
        COL_SAMPLE_DRAWS,
        COL_SPARSE_WRITES,
        COL_STALE_READS,
    )

    iters = int(delta[:, COL_ITERATIONS].sum())
    event.merge_bulk(
        iterations=iters,
        grad_nnz=int(delta[:, COL_SPARSE_WRITES].sum()),
        dense_coords=int(delta[:, COL_DENSE_WRITES].sum()),
        conflicts=int(delta[:, COL_CONFLICTS].sum()),
        sample_draws=int(delta[:, COL_SAMPLE_DRAWS].sum()),
        stale_reads=int(delta[:, COL_STALE_READS].sum()),
        max_delay=int(max_delay),
    )
    return iters


__all__ = [
    "build_schedule",
    "fold_block",
    "fold_sync_step",
    "fold_worker_counters",
]
