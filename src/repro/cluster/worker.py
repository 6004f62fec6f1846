"""The process worker of the parameter-server cluster.

Each worker is a real OS process (no GIL sharing with its peers).  It owns
one shard of the *samples* (a :class:`repro.core.partition.WorkerShard`,
exactly as in the simulated engines) and executes its per-epoch sample
sequence in macro-blocks through the kernel batch primitives:

1. ``CSRMatrix.gather_rows`` — one gather of the block's rows from the
   shared (read-only) dataset arrays;
2. ``KernelBackend.segment_margins`` — all block margins against the live
   shared parameter buffer (other workers keep writing underneath: these
   reads are genuinely stale, not simulated-stale);
3. the registered update rule's block computation
   (:meth:`repro.rules.base.UpdateRuleKernel.block_entry_weights` — the
   *same* definition the simulated tiers execute);
4. ``KernelBackend.scatter_add`` — one lock-free index-compressed write of
   the whole block into the shared parameter buffer (``np.add.at`` over
   shared memory: last-writer-wins per coordinate, the Hogwild semantics).

Since the elasticity work, an epoch's sample sequence is not private to
its owner: each worker publishes its sequence and a *block queue* into the
arena at epoch start, claims blocks one at a time under a shared lock, and
— when the driver arms work-stealing for the epoch — a worker that drains
its own queue steals tail blocks from the most-loaded peer instead of
idling at the barrier.  Stolen blocks execute the victim's samples with
the victim's step weights; the measured counters (and a ``COL_STEALS``
tally) are credited to the thief.  Every block is claimed exactly once,
so the epoch's total work is invariant under stealing.

Determinism of the sample stream is seed-table based: the driver derives
one seed per ``(worker, epoch)`` from its own root seed and passes each
worker its slice (``task.epoch_seeds``), so a replacement worker spawned
after a failure — or a resumed run — replays exactly the sequences the
original fleet would have drawn.

Around the arithmetic the worker measures what the simulator *models*: the
update lag between its read and its write (the perturbed-iterate delay τ),
which coordinates were overwritten by other workers in that window
(conflicts), and how its writes spread over equal coordinate ranges
(occupancy).  The driver folds those counters into the same
:class:`~repro.async_engine.events.EpochEvent` records the simulator
emits, so measured and simulated traces are directly comparable.

Rule-specific shared state rides in the arena: SVRG's per-epoch snapshot
blocks (``mu``, ``snap_margins``, refreshed by the driver between epochs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cluster.shm import ArenaSpec, ShmArena
from repro.core.sampler import AliasSampler, SampleSequence
from repro.rules import make_rule
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import segment_bool_any

# Column layout of the per-worker counter rows (int64, one row per worker;
# a worker only ever writes its own row, so no cross-process races).
COL_ITERATIONS = 0
COL_SPARSE_WRITES = 1
COL_CONFLICTS = 2
COL_STALE_READS = 3
COL_DELAY_SUM = 4
COL_MAX_DELAY = 5
COL_DENSE_WRITES = 6
COL_SAMPLE_DRAWS = 7
COL_STEALS = 8
NUM_COUNTER_COLS = 9

#: Barrier wait timeout (seconds); a worker crash aborts the barrier long
#: before this, the timeout only guards against silent hangs.
BARRIER_TIMEOUT = 300.0

#: Poll interval (seconds) of the generation-barrier wait loops.
BARRIER_POLL = 0.0005


class BarrierAborted(RuntimeError):
    """The driver aborted the epoch barrier (failure or shutdown)."""


def barrier_phase(arrive: np.ndarray, state: np.ndarray, wid: int, gen: int) -> None:
    """One worker-side crossing of the shared-memory generation barrier.

    ``multiprocessing.Barrier`` is built on shared locks and condition
    variables; a worker SIGKILLed while parked in (or passing through) one
    of them corrupts the primitive for every survivor — ``notify`` blocks
    forever on the dead waiter's wake handshake, and even ``abort`` needs
    the very mutex the corpse may hold.  A fault-tolerant tier therefore
    cannot use it.  This barrier keeps every participant on *single-writer*
    shared-memory words instead: a worker publishes its arrival by writing
    its own slot of ``arrive`` (one aligned int64 store, nothing a dying
    process can leave half-taken), then polls the driver-owned release
    generation in ``state[0]``; ``state[1]`` is the driver's abort flag.
    Killing any participant at any instruction leaves the others fully
    functional — detection and recovery stay entirely with the driver.
    """
    arrive[wid] = gen
    deadline = time.monotonic() + BARRIER_TIMEOUT
    while int(state[0]) < gen:
        if int(state[1]):
            raise BarrierAborted("driver aborted the epoch barrier")
        if time.monotonic() > deadline:
            raise BarrierAborted("epoch barrier timed out (driver gone?)")
        time.sleep(BARRIER_POLL)


@dataclass
class WorkerTask:
    """Everything one process worker needs (fully picklable).

    The heavy state (dataset, parameters, counters) and every shard's rows,
    step weights, block length and iteration count live in ``arena``, where
    a thief reads a victim's values as its owner does; the task carries
    only the worker's sampling distribution and scalar configuration.
    """

    worker_id: int
    arena: ArenaSpec
    probabilities: np.ndarray           # local sampling distribution over the shard's rows
    step_size: float
    objective: object                   # repro Objective (picklable)
    epoch_seeds: np.ndarray             # int64, one sequence seed per epoch to run
    rule: str = "sgd"                   # registry name from repro.rules
    kernel_name: Optional[str] = None
    start_epoch: int = 0                # global index of the first epoch to run


def run_worker(task: WorkerTask, lock=None) -> None:
    """Process entry point: run one epoch per ``task.epoch_seeds`` entry.

    The protocol is two generation-barrier crossings per epoch (see
    :func:`barrier_phase`): the first releases the epoch (the driver has
    finished its preparation — e.g. SVRG's µ), the second ends it (the
    driver snapshots weights and reads counters while everyone is parked).
    ``lock`` serialises block-queue claims (own-queue pops and steals).
    On any exception the worker raises its ``errors`` flag — the driver's
    arrival poll notices — and re-raises, exiting nonzero.
    """
    import threading

    from repro.kernels.registry import resolve_backend

    if lock is None:  # single-process callers; claims need no cross-process lock
        lock = threading.Lock()
    arena = ShmArena.attach(task.arena)
    try:
        _worker_loop(task, lock, arena, resolve_backend(task.kernel_name))
    except BarrierAborted:
        pass
    except BaseException:
        try:
            arena["errors"][task.worker_id] = 1
        except Exception:
            pass
        raise
    finally:
        arena.close()


def _claim_block(
    lock, wid: int, tag: int, queue_next, queue_end, seq_epoch, steal_ok: bool
) -> Optional[Tuple[int, int]]:
    """Claim the next block: own queue head first, else steal a tail block.

    Returns ``(victim, block_index)`` or ``None`` when no claimable block
    remains.  Steal victims must have *published* their queue for this
    epoch (``seq_epoch == tag``) — a replacement fleet resets the tags, so
    a thief can never execute a stale queue from before a failure.  All
    bounds are read and advanced under ``lock``: every block is claimed
    exactly once, by exactly one worker.
    """
    with lock:
        if seq_epoch[wid] == tag and queue_next[wid] < queue_end[wid]:
            block = int(queue_next[wid])
            queue_next[wid] += 1
            return wid, block
        if not steal_ok:
            return None
        victim, best_remaining = -1, 0
        for peer in range(seq_epoch.size):
            if peer == wid or seq_epoch[peer] != tag:
                continue
            remaining = int(queue_end[peer] - queue_next[peer])
            if remaining > best_remaining:
                victim, best_remaining = peer, remaining
        if victim < 0:
            return None
        queue_end[victim] -= 1
        return victim, int(queue_end[victim])


def _worker_loop(task: WorkerTask, lock, arena: ShmArena, kernel) -> None:
    wid = task.worker_id
    barrier_arrive = arena["barrier_arrive"]
    barrier_state = arena["barrier_state"]
    w = arena["weights"]                       # global coordinate order, float64[dim]
    X = CSRMatrix(
        data=arena["x_data"],
        indices=arena["x_indices"],
        indptr=arena["x_indptr"],
        n_cols=w.shape[0],
    )
    y = arena["y"]
    shard_of = arena["shard_of"]
    counters = arena["counters"]
    shard_writes = arena["shard_writes"]
    progress = arena["progress"]
    last_writer = arena["last_writer"]
    write_clock = arena["write_clock"]
    num_shards = shard_writes.shape[1]

    # Block-queue machinery (shared with every peer; see module docstring).
    sequences = arena["sequences"]
    seq_epoch = arena["seq_epoch"]
    queue_next = arena["queue_next"]
    queue_end = arena["queue_end"]
    queue_block = arena["queue_block"]
    queue_iters = arena["queue_iters"]
    steal_enabled = arena["steal_enabled"]
    all_rows = arena["all_rows"]
    all_step_weights = arena["all_step_weights"]
    row_offsets = arena["row_offsets"]

    rule = make_rule(task.rule, task.objective, task.step_size)
    epoch_seeds = np.asarray(task.epoch_seeds, dtype=np.int64)
    iterations = int(queue_iters[wid])
    n_blocks = -(-iterations // int(queue_block[wid]))
    is_svrg = task.rule in ("svrg", "svrg_skip_dense")
    mu = arena["mu"] if is_svrg else None
    snap_margins = arena["snap_margins"] if is_svrg else None
    grad_nnz_mult = int(rule.grad_nnz_multiplier)
    count_sample_draws = bool(rule.counts_sample_draws)

    # One alias table per process; every epoch draws its sequence from it.
    sampler = AliasSampler(task.probabilities)
    for k, seed in enumerate(epoch_seeds):
        tag = task.start_epoch + k
        barrier_phase(barrier_arrive, barrier_state, wid, 2 * k + 1)  # epoch start
        steal_ok = int(steal_enabled[0]) == 1     # never armed for one worker
        sequence = SampleSequence.generate(
            task.probabilities, iterations, seed=int(seed), sampler=sampler,
        ).indices
        sequences[wid, : sequence.size] = sequence
        if is_svrg:
            # Adopt the driver's refreshed snapshot state for this epoch.
            rule.set_snapshot(mu.copy(), snap_margins)

        # Publish this worker's block queue; the tag goes last so a peer
        # that observes it sees fully initialised bounds.
        with lock:
            queue_next[wid] = 0
            queue_end[wid] = n_blocks
            seq_epoch[wid] = tag

        while True:
            if int(barrier_state[1]):  # driver aborted (peer died) — stop early
                raise BarrierAborted("driver aborted the epoch barrier")
            claim = _claim_block(lock, wid, tag, queue_next, queue_end, seq_epoch, steal_ok)
            if claim is None:
                break
            victim, block_index = claim
            vblock = int(queue_block[victim])
            viters = int(queue_iters[victim])
            start = block_index * vblock
            local = sequences[victim, start : min(start + vblock, viters)]
            n_iter = int(local.size)
            if n_iter == 0:
                continue
            base = int(row_offsets[victim])
            rows = all_rows[base + local]
            step_w = all_step_weights[base + local]

            # Read side: logical clock before the stale read.
            t_read = int(progress.sum())
            idx, val, lengths = X.gather_rows(rows)
            margins = kernel.segment_margins(idx, val, lengths, w)

            entry = rule.block_entry_weights(
                w=w,
                rows=rows,
                y=y[rows],
                margins=margins,
                step_weights=step_w,
                idx=idx,
                val=val,
                lengths=lengths,
            )
            dense_step = rule.dense_delta

            # Write side: what landed from other workers while we computed?
            t_write = int(progress.sum())
            delay = t_write - t_read
            if idx.size:
                foreign = (
                    (last_writer[idx] != wid)
                    & (last_writer[idx] >= 0)
                    & (write_clock[idx] > t_read)
                )
                conflicts = int(np.count_nonzero(segment_bool_any(foreign, lengths)))
            else:
                conflicts = 0

            if dense_step is not None:
                w += n_iter * dense_step
            kernel.scatter_add(w, idx, entry)
            if idx.size:
                write_clock[idx] = t_write
                last_writer[idx] = wid
                shard_writes[wid] += np.bincount(shard_of[idx], minlength=num_shards)
            progress[wid] += n_iter

            row_c = counters[wid]
            row_c[COL_ITERATIONS] += n_iter
            row_c[COL_SPARSE_WRITES] += grad_nnz_mult * int(lengths.sum())
            row_c[COL_CONFLICTS] += conflicts
            row_c[COL_DELAY_SUM] += delay * n_iter
            if victim != wid:
                row_c[COL_STEALS] += 1
            if delay > 0:
                row_c[COL_STALE_READS] += n_iter
                if delay > row_c[COL_MAX_DELAY]:
                    row_c[COL_MAX_DELAY] = delay
            if dense_step is not None:
                row_c[COL_DENSE_WRITES] += n_iter * int(dense_step.shape[0])
            if count_sample_draws:
                row_c[COL_SAMPLE_DRAWS] += n_iter

        barrier_phase(barrier_arrive, barrier_state, wid, 2 * k + 2)  # epoch end


__all__ = [
    "WorkerTask",
    "run_worker",
    "barrier_phase",
    "BarrierAborted",
    "NUM_COUNTER_COLS",
    "COL_ITERATIONS",
    "COL_SPARSE_WRITES",
    "COL_CONFLICTS",
    "COL_STALE_READS",
    "COL_DELAY_SUM",
    "COL_MAX_DELAY",
    "COL_DENSE_WRITES",
    "COL_SAMPLE_DRAWS",
    "COL_STEALS",
    "BARRIER_TIMEOUT",
]
