"""Shared trace/counter folding for every execution backend.

Each execution tier used to re-implement the same three pieces of
bookkeeping: building the randomised worker interleaving, folding iteration
counters into :class:`~repro.async_engine.events.EpochEvent` records with
the rule's multipliers applied, and (for the cluster tier) collapsing the
per-worker shared-memory counter rows into one epoch event.  This module is
the single home for that machinery; the per-sample simulator, the batched
macro-step engine and the cluster driver all fold through it, so a new
counter is added in exactly one place.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.async_engine.events import EpochEvent


def build_schedule(workers: Sequence, rng: np.random.Generator) -> np.ndarray:
    """The randomised round-robin interleaving of one epoch.

    Every worker contributes ``iterations_per_epoch`` slots; the shuffled
    order models the unpredictable scheduling of lock-free threads.  Both
    simulated engines draw their schedule through this function, which is
    what keeps their traces bit-comparable for one seed.
    """
    schedule = np.concatenate(
        [np.full(w.iterations_per_epoch, w.worker_id, dtype=np.int64) for w in workers]
    )
    rng.shuffle(schedule)
    return schedule


def fold_iteration(
    event: EpochEvent,
    rule,
    *,
    nnz: int,
    dense_coords: int,
    conflicts: int,
    delay: int,
    drew_sample: bool = True,
    history_overflow: int = 0,
) -> None:
    """Fold one per-sample iteration, applying the rule's trace metadata.

    ``nnz`` is the raw support size of the sample; the rule's
    ``grad_nnz_multiplier`` (two margin evaluations for VR rules) prices it,
    while ``dense_coords`` comes from the rule's scalar entry point so
    custom duck-typed rules keep working.
    """
    event.merge_iteration(
        grad_nnz=int(nnz) * int(getattr(rule, "grad_nnz_multiplier", 1)),
        dense_coords=int(dense_coords),
        conflicts=int(conflicts),
        delay=int(delay),
        drew_sample=bool(drew_sample),
        history_overflow=int(history_overflow),
    )


def fold_block(
    event: EpochEvent,
    rule,
    *,
    iterations: int,
    support_nnz: int,
    conflicts: int,
    delays: Optional[np.ndarray] = None,
    history_overflows: int = 0,
    dense_coords_per_iteration: Optional[int] = None,
) -> None:
    """Fold one macro-step (``iterations`` inner iterations) in bulk.

    Equivalent to ``iterations`` :func:`fold_iteration` calls: the rule's
    multipliers price the sparse/dense traffic, ``delays`` (one entry per
    iteration, when the tier models delays) yields the stale-read count and
    the epoch's running maximum delay.
    """
    n = int(iterations)
    if dense_coords_per_iteration is None:
        dense = getattr(rule, "dense_delta", None)
        dense_coords_per_iteration = 0 if dense is None else int(dense.shape[0])
    stale_reads = 0
    max_delay = 0
    if delays is not None and delays.size:
        stale_reads = int(np.count_nonzero(delays > 0))
        max_delay = int(delays.max(initial=0))
    event.merge_bulk(
        iterations=n,
        grad_nnz=int(getattr(rule, "grad_nnz_multiplier", 1)) * int(support_nnz),
        dense_coords=int(dense_coords_per_iteration) * n,
        conflicts=int(conflicts),
        sample_draws=n if getattr(rule, "counts_sample_draws", True) else 0,
        stale_reads=stale_reads,
        max_delay=max_delay,
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
    "fold_iteration",
    "fold_block",
    "fold_sync_step",
    "fold_worker_counters",
]
