"""Driver of the multi-process parameter-server cluster.

:class:`ClusterDriver` turns a data :class:`~repro.core.partition.Partition`
into a fleet of real OS processes sharing one parameter vector:

* it allocates the shared-memory arena (the weights in global coordinate
  order, read-only dataset arrays, per-worker counter rows, conflict
  stamps, block queues) through :class:`~repro.cluster.shm.ShmArena`;
* it spawns one :func:`~repro.cluster.worker.run_worker` process per data
  shard and paces them with a barrier, twice per epoch — between epochs
  the driver folds the measured counters into the same
  :class:`~repro.async_engine.events.EpochEvent` records the simulator
  emits, hands the epoch's weights to ``epoch_callback`` and (for SVRG)
  refreshes the snapshot state;
* it returns a :class:`ClusterRunResult` whose trace plugs into the
  existing metrics/cost/experiments pipeline unchanged — but whose
  wall-clock is *measured*, not modelled.

The cluster is **elastic and fault-tolerant**:

* the run's state is its last consistent checkpoint: at every end barrier
  the epoch folds into a copy of it (weights, sampler stream, measured
  history — see :mod:`repro.cluster.checkpoint`), which is optionally
  persisted to a :class:`~repro.cluster.checkpoint.CheckpointStore` every
  ``checkpoint_every`` epochs;
* when a worker dies mid-epoch (SIGKILL, OOM, Python crash) the watchdog
  aborts the barrier, the driver reports exactly *which* worker died and
  how (:class:`WorkerFailure`), reaps the fleet, restores the arena from
  the last checkpoint and respawns a full replacement fleet that replays
  the interrupted epoch (partial lock-free work of the survivors cannot
  be unwound per-worker, so the epoch restarts from a consistent cut);
  ``max_respawns`` bounds the recovery attempts;
* the arena and the checkpoints share one layout (global coordinate
  order), so a checkpoint resumes bit-identically at any worker count;
* stragglers are mitigated by work-stealing across the per-worker block
  queues, armed per epoch when the planned or measured
  :func:`~repro.cluster.cost_model.work_skew` exceeds
  :data:`STEAL_SKEW_THRESHOLD` (or forced with ``work_stealing=True``).

Solvers select this tier with ``async_mode="process"`` (see
:mod:`repro.runtime`); it is the first execution path in the repository
whose throughput scales with physical cores.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import signal as signal_module
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.async_engine.events import EpochEvent, ExecutionTrace
from repro.cluster.checkpoint import CheckpointStore, ClusterCheckpoint
from repro.cluster.cost_model import occupancy_skew, work_skew
from repro.cluster.shm import ShmArena
from repro.cluster.worker import (
    BARRIER_TIMEOUT,
    COL_DELAY_SUM,
    COL_ITERATIONS,
    COL_MAX_DELAY,
    COL_STEALS,
    NUM_COUNTER_COLS,
    WorkerTask,
    run_worker,
)
from repro.core.partition import Partition
from repro.objectives.base import Objective
from repro.runtime.trace_fold import fold_sync_step, fold_worker_counters
from repro.rules import available_rules
from repro.sparse.csr import CSRMatrix
from repro.utils.rng import RandomState, as_rng

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV_VAR = "REPRO_CLUSTER_START_METHOD"

#: ``work_stealing="auto"`` arms an epoch when the planned or the last
#: measured work skew exceeds this.
STEAL_SKEW_THRESHOLD = 0.05


def default_start_method() -> str:
    """``fork`` where available (cheap), else ``spawn``; env-overridable."""
    env = os.environ.get(START_METHOD_ENV_VAR, "").strip()
    if env:
        return env
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def available_parallelism() -> int:
    """Physical cores usable by this process (affinity-aware)."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:  # pragma: no cover - non-Linux
        return max(os.cpu_count() or 1, 1)


class WorkerFailure(RuntimeError):
    """One or more cluster worker processes died or raised.

    Machine-readable detail rides along: :attr:`failures` is a list of
    ``(worker_id, exitcode)`` pairs — a negative exit code is a death by
    signal (``-9`` = SIGKILL) — and :attr:`python_errors` lists the worker
    ids whose crash was a Python exception (the child printed its
    traceback).  The driver's elastic path catches this, restores the last
    checkpoint and respawns the fleet; with recovery disabled
    (``max_respawns=0``) or exhausted it propagates to the caller.
    """

    def __init__(
        self,
        failures: Sequence[Tuple[int, Optional[int]]],
        python_errors: Sequence[int] = (),
    ) -> None:
        self.failures = [
            (int(wid), None if code is None else int(code)) for wid, code in failures
        ]
        self.python_errors = [int(wid) for wid in python_errors]
        flagged = set(self.python_errors)
        parts = []
        for wid, code in self.failures:
            if code is not None and code < 0:
                try:
                    name = signal_module.Signals(-code).name
                except ValueError:  # pragma: no cover - unknown signal number
                    name = f"signal {-code}"
                parts.append(f"worker {wid} died with {name}")
            elif wid in flagged:
                parts.append(
                    f"worker {wid} raised a Python exception "
                    f"(exit code {code}; see worker traceback above)"
                )
            else:
                parts.append(f"worker {wid} exited with code {code}")
        reported = {wid for wid, _ in self.failures}
        for wid in self.python_errors:
            if wid not in reported:
                parts.append(
                    f"worker {wid} raised a Python exception (see worker traceback above)"
                )
        detail = "; ".join(parts) or "barrier aborted or timed out with no exit status"
        super().__init__(f"cluster worker(s) failed: {detail}")


def _collect_worker_failure(procs, arena: ShmArena) -> WorkerFailure:
    """Build a :class:`WorkerFailure` after a broken barrier.

    Exit codes can lag the barrier abort by a scheduling quantum, so poll
    briefly until either an exit status or a worker-side error flag lands.
    """
    deadline = time.monotonic() + 2.0
    while True:
        failures = [
            (wid, proc.exitcode)
            for wid, proc in enumerate(procs)
            if proc.exitcode not in (0, None)
        ]
        if failures or arena["errors"].any() or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    python_errors = np.nonzero(arena["errors"])[0].tolist()
    return WorkerFailure(failures, python_errors)


@dataclass
class ClusterRunResult:
    """Outcome of :meth:`ClusterDriver.run`, with the measured per-epoch statistics."""

    weights: np.ndarray
    trace: ExecutionTrace
    epoch_seconds: List[float] = field(default_factory=list)
    epoch_mean_delay: List[float] = field(default_factory=list)
    epoch_occupancy_skew: List[float] = field(default_factory=list)
    epoch_steals: List[int] = field(default_factory=list)
    shard_write_fractions: Optional[np.ndarray] = None
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_clock(self) -> np.ndarray:
        """Cumulative *measured* seconds at the end of every epoch."""
        return np.cumsum(np.asarray(self.epoch_seconds, dtype=np.float64))


@dataclass
class _RunState:
    """One :meth:`ClusterDriver.run`: its last consistent cut plus the
    run's own tallies, which a respawn does not roll back."""

    cut: ClusterCheckpoint
    start_epoch: int = 0
    last_work_skew: float = 0.0
    respawns: int = 0
    steal_epochs: int = 0
    checkpoints_persisted: int = 0


class ClusterDriver:
    """Run SGD-style updates on a shared-memory model with process workers.

    Parameters
    ----------
    X, y, objective:
        The problem definition (the dataset is shared read-only with every
        worker through the arena).
    partition:
        Sample shards, one worker process per shard (built by the solvers
        exactly as for the simulated engines).
    step_size:
        Base step size λ.
    importance_sampling:
        Workers draw from their local importance distribution with the
        ``1/(n_a p_i)`` re-weighting (clipped at ``step_clip``) when True,
        uniformly otherwise.
    rule:
        A :mod:`repro.rules` name (``"sgd"``, ``"is_sgd"``, ``"svrg"``,
        ``"svrg_skip_dense"``); the workers execute the rule's single block
        definition, and the driver provisions its shared state (SVRG's
        per-epoch µ/snapshot blocks).
    batch_size:
        Macro-block length per worker (``"auto"`` picks a block that keeps
        per-block Python overhead negligible without making reads much
        staler than the real interleaving).  Worker processes start with
        :func:`default_start_method`.
    checkpoint_store:
        A :class:`~repro.cluster.checkpoint.CheckpointStore` (or directory
        path) to persist consistent checkpoints into; ``None`` keeps
        checkpoints in memory only (still enough for worker replacement).
    checkpoint_every:
        Persist every N-th epoch barrier to the store (the final epoch is
        always persisted).  The run's own cut, which recovery restores,
        advances every epoch regardless.
    max_respawns:
        Fleet respawn budget per run; 0 disables recovery (any worker
        death raises :class:`WorkerFailure` immediately).
    work_stealing:
        ``"auto"`` (default) arms stealing for an epoch when the planned or
        previously measured :func:`~repro.cluster.cost_model.work_skew`
        exceeds :data:`STEAL_SKEW_THRESHOLD`; ``True``/``False`` force it.
    fault_hook:
        Optional observer ``hook(kind, payload)`` called at
        ``"fleet_spawned"``, ``"epoch_running"`` (between the release and
        end barriers — the epoch cannot complete while the hook runs) and
        ``"respawn"``.  This is the seam the fault-injection test harness
        (``tests/cluster/faults.py``) uses to strike deterministically.
    epoch_callback:
        Optional ``(epoch, weights)`` callable invoked once per completed
        epoch, in order, with a copy of the weights.  It runs at the end
        barrier after the epoch's seconds are measured, so its own time is
        not counted in them; an epoch replayed after a respawn is reported
        once, and a resumed run reports only the epochs it runs.
    """

    def __init__(
        self,
        X: CSRMatrix,
        y: np.ndarray,
        objective: Objective,
        partition: Partition,
        *,
        step_size: float,
        importance_sampling: bool = False,
        step_clip: float = 100.0,
        rule: str = "sgd",
        batch_size: Union[int, str] = "auto",
        kernel_name: Optional[str] = None,
        seed: RandomState = 0,
        checkpoint_store: Optional[Union[CheckpointStore, str, Path]] = None,
        checkpoint_every: int = 1,
        max_respawns: int = 3,
        work_stealing: Union[bool, str] = "auto",
        fault_hook: Optional[Callable[[str, Dict[str, Any]], None]] = None,
        epoch_callback: Optional[Callable[[int, np.ndarray], None]] = None,
    ) -> None:
        if y.shape[0] != X.n_rows:
            raise ValueError("X and y row counts differ")
        if rule not in available_rules():
            raise ValueError(
                f"unknown update rule {rule!r}; available: {', '.join(available_rules())}"
            )
        if work_stealing not in (True, False, "auto"):
            raise ValueError("work_stealing must be True, False or 'auto'")
        if int(checkpoint_every) < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if int(max_respawns) < 0:
            raise ValueError("max_respawns must be >= 0")
        self.X = X
        self.y = np.ascontiguousarray(y, dtype=np.float64)
        self.objective = objective
        self.partition = partition
        self.step_size = float(step_size)
        self.importance_sampling = bool(importance_sampling)
        self.step_clip = float(step_clip)
        self.rule = rule
        self.num_workers = partition.num_workers
        # Write occupancy is counted over equal contiguous coordinate
        # ranges, one per worker (at most one range per coordinate).
        self._num_shards = min(self.num_workers, X.n_cols)
        self._range_bounds = np.linspace(0, X.n_cols, self._num_shards + 1).astype(np.int64)
        self.batch_size = batch_size
        self.kernel_name = kernel_name
        self.seed = seed
        if checkpoint_store is not None and not isinstance(checkpoint_store, CheckpointStore):
            checkpoint_store = CheckpointStore(checkpoint_store)
        self.checkpoint_store = checkpoint_store
        self.checkpoint_every = int(checkpoint_every)
        self.max_respawns = int(max_respawns)
        self.work_stealing = work_stealing
        self.fault_hook = fault_hook
        self.epoch_callback = epoch_callback
        # The sampler seed root: every per-(worker, epoch) sequence seed is
        # derived from it alone, independently of fleet size or epoch count
        # — the property checkpoint/resume and worker replacement rely on.
        self._seed_root = int(as_rng(seed).integers(0, 2**31 - 1))
        self._iterations = [max(1, shard.size) for shard in partition.shards]
        self._identity: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    def resolved_batch_size(self, iterations_per_worker: int) -> int:
        """The macro-block length actually used."""
        if self.batch_size == "auto":
            # Big enough to amortise per-block Python overhead, small
            # enough that every epoch has many interleaving points per
            # worker (reads stay near-fresh relative to the epoch).
            return int(np.clip(iterations_per_worker // 16, 32, 1024))
        return max(1, int(self.batch_size))

    def epoch_seed(self, worker_id: int, epoch: int) -> int:
        """The deterministic sample-sequence seed of ``(worker, epoch)``.

        Derived from ``(seed_root, worker_id, epoch)`` through a
        :class:`numpy.random.SeedSequence`, so it is independent of the
        total epoch count and of every other worker — a replacement worker
        or a resumed run regenerates exactly the original stream.
        """
        ss = np.random.SeedSequence([self._seed_root, int(worker_id), int(epoch)])
        return int(ss.generate_state(1)[0] & 0x7FFFFFFF)

    def checkpoint_identity(self) -> Dict[str, Any]:
        """The run identity checkpoints are keyed by.

        Contains everything that determines the optimisation trajectory —
        the dataset bytes, objective, rule, step sizes and the sampler seed
        root — and deliberately **excludes** cluster membership (worker,
        shard and batch configuration), so a checkpoint resumes at any
        fleet size.
        """
        if self._identity is None:
            digest = hashlib.sha256()
            for array in (self.X.data, self.X.indices, self.X.indptr, self.y):
                digest.update(np.ascontiguousarray(array).tobytes())
            regularizer = getattr(self.objective, "regularizer", None)
            self._identity = {
                "kind": "cluster_checkpoint",
                "data_sha256": digest.hexdigest(),
                "objective": type(self.objective).__name__,
                "regularizer": type(regularizer).__name__ if regularizer is not None else None,
                "rule": self.rule,
                "skip_dense_term": self.rule == "svrg_skip_dense",
                "step_size": float(self.step_size),
                "importance_sampling": bool(self.importance_sampling),
                "step_clip": float(self.step_clip),
                "seed_root": self._seed_root,
                # Part of every stored checkpoint's digest, hence its file name.
                "run_id": None,
            }
        return self._identity

    # ------------------------------------------------------------------ #
    def run(
        self,
        epochs: int,
        *,
        initial_weights: Optional[np.ndarray] = None,
        resume: bool = False,
    ) -> ClusterRunResult:
        """Execute ``epochs`` epochs on the process cluster.

        With ``resume=True`` (requires ``checkpoint_store``) the newest
        stored checkpoint of this run identity at or below ``epochs`` is
        restored — whatever fleet size wrote it — and only the remaining
        epochs execute (and reach ``epoch_callback``; the trace still covers
        every epoch); ``initial_weights`` is ignored when a checkpoint is
        found.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        d = self.X.n_cols
        if initial_weights is not None:
            initial_weights = np.ascontiguousarray(initial_weights, dtype=np.float64)
            if initial_weights.shape != (d,):
                raise ValueError(
                    f"initial_weights must have shape ({d},), got {initial_weights.shape}"
                )
        cut: Optional[ClusterCheckpoint] = None
        if resume:
            if self.checkpoint_store is None:
                raise ValueError("resume=True requires a checkpoint_store")
            cut = self.checkpoint_store.latest(self.checkpoint_identity(), max_epoch=epochs)
        if cut is None:
            cut = ClusterCheckpoint(
                identity=self.checkpoint_identity(),
                epoch=0,
                num_workers=self.num_workers,
                weights=np.zeros(d) if initial_weights is None else initial_weights.copy(),
                rule=self.rule,
                sampler=self._sampler_position(0),
            )
        totals = cut.shard_write_totals
        if totals is None or totals.shape != (self._num_shards,):
            # A fresh run, or the range count changed across the resume:
            # per-range attribution of the earlier segment no longer maps.
            cut.shard_write_totals = np.zeros(self._num_shards, np.int64)

        arena = ShmArena()
        try:
            sampling = self._build_sampling()
            self._create_arena(arena, sampling)
            self._restore(arena, cut)
            state = _RunState(cut=cut, start_epoch=cut.epoch)
            return self._drive(epochs, arena, state, sampling)
        finally:
            arena.close()

    # ------------------------------------------------------------------ #
    def _build_sampling(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-shard ``(probabilities, step_weights)`` pairs."""
        sampling = []
        for shard in self.partition.shards:
            if self.importance_sampling:
                probs = shard.probabilities
                with np.errstate(divide="ignore"):
                    reweight = 1.0 / (shard.size * probs)
                reweight = np.minimum(reweight, self.step_clip)
            else:
                probs = np.full(shard.size, 1.0 / max(shard.size, 1))
                reweight = np.ones(shard.size)
            sampling.append((probs, reweight))
        return sampling

    def _create_arena(
        self, arena: ShmArena, sampling: List[Tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """Allocate every shared block of one run."""
        d = self.X.n_cols
        arena.create("weights", (d,), "float64")
        arena.create("x_data", self.X.data.shape, "float64", initial=self.X.data)
        # CSRMatrix normalises indices/indptr to int32; matching the
        # arena dtype keeps the workers' reconstructed views zero-copy.
        arena.create("x_indices", self.X.indices.shape, "int32", initial=self.X.indices)
        arena.create("x_indptr", self.X.indptr.shape, "int32", initial=self.X.indptr)
        arena.create("y", self.y.shape, "float64", initial=self.y)
        arena.create(
            "range_bounds", self._range_bounds.shape, "int64", initial=self._range_bounds
        )
        arena.create("counters", (self.num_workers, NUM_COUNTER_COLS), "int64")
        arena.create("shard_writes", (self.num_workers, self._num_shards), "int64")
        arena.create("progress", (self.num_workers,), "int64")
        arena.create("last_writer", (d,), "int32", initial=np.full(d, -1, np.int32))
        arena.create("write_clock", (d,), "int64")
        arena.create("errors", (self.num_workers,), "int64")

        # Block-queue machinery: published sample sequences, per-worker
        # claim bounds and the concatenated shard rows / step weights that
        # let a thief execute a victim's stolen block (see worker module).
        iterations = self._iterations
        arena.create("sequences", (self.num_workers, max(iterations)), "int64")
        arena.create(
            "seq_epoch", (self.num_workers,), "int64",
            initial=np.full(self.num_workers, -1, np.int64),
        )
        arena.create("queue_next", (self.num_workers,), "int64")
        arena.create("queue_end", (self.num_workers,), "int64")
        arena.create(
            "queue_block", (self.num_workers,), "int64",
            initial=np.array(
                [self.resolved_batch_size(it) for it in iterations], np.int64
            ),
        )
        arena.create(
            "queue_iters", (self.num_workers,), "int64",
            initial=np.asarray(iterations, np.int64),
        )
        arena.create("steal_enabled", (1,), "int64")
        # Generation barrier (single-writer words only — see
        # repro.cluster.worker.barrier_phase): per-worker arrival slots
        # plus [release_generation, abort_flag].
        arena.create("barrier_arrive", (self.num_workers,), "int64")
        arena.create("barrier_state", (2,), "int64")
        all_rows = np.concatenate(
            [shard.row_indices for shard in self.partition.shards]
        ).astype(np.int64)
        all_step_weights = np.concatenate([rw for _, rw in sampling]).astype(np.float64)
        sizes = np.array([shard.size for shard in self.partition.shards], np.int64)
        row_offsets = np.zeros(self.num_workers + 1, np.int64)
        np.cumsum(sizes, out=row_offsets[1:])
        arena.create("all_rows", all_rows.shape, "int64", initial=all_rows)
        arena.create(
            "all_step_weights", all_step_weights.shape, "float64",
            initial=all_step_weights,
        )
        arena.create("row_offsets", (self.num_workers + 1,), "int64", initial=row_offsets)

        if self.rule in ("svrg", "svrg_skip_dense"):
            arena.create("mu", (d,), "float64")
            arena.create("snap_margins", (self.X.n_rows,), "float64")

    # ------------------------------------------------------------------ #
    def _sampler_position(self, epoch: int) -> Dict[str, Any]:
        """The sampler stream position of a cut after ``epoch`` epochs."""
        return {
            "seed_root": self._seed_root,
            "next_epoch_seeds": [
                self.epoch_seed(wid, epoch) for wid in range(self.num_workers)
            ],
        }

    def _restore(self, arena: ShmArena, checkpoint: ClusterCheckpoint) -> None:
        """Load ``checkpoint`` into the arena and clear the measuring blocks.

        Arena and checkpoint share one layout, so a checkpoint written at
        any fleet size restores bit-identically.  Weights of another shape
        raise :class:`ValueError` before anything is copied: assigned into
        the arena, a short vector would be broadcast over every coordinate.
        The queues, error flags and barrier are reset by
        :meth:`_spawn_fleet`, which follows every restore that runs an epoch.
        """
        expected = arena["weights"].shape
        if checkpoint.weights.shape != expected:
            raise ValueError(
                f"checkpoint array weights has shape {checkpoint.weights.shape}, "
                f"expected {expected}"
            )
        arena["weights"][...] = checkpoint.weights
        arena["counters"][...] = 0
        arena["shard_writes"][...] = 0
        arena["progress"][...] = 0
        arena["write_clock"][...] = 0
        arena["last_writer"][...] = -1

    # ------------------------------------------------------------------ #
    def _notify(self, kind: str, payload: Dict[str, Any]) -> None:
        if self.fault_hook is not None:
            self.fault_hook(kind, payload)

    def _spawn_fleet(self, ctx, arena: ShmArena, sampling, start_epoch: int, epochs: int):
        """Launch one worker process per shard for epochs ``[start_epoch, epochs)``."""
        lock = ctx.Lock()
        # Invalidate any queue published by a previous fleet so a thief can
        # never claim blocks from before a failure, and reset the
        # generation barrier for the new fleet.
        arena["seq_epoch"][...] = -1
        arena["queue_next"][...] = 0
        arena["queue_end"][...] = 0
        arena["errors"][...] = 0
        arena["barrier_arrive"][...] = 0
        arena["barrier_state"][...] = 0
        procs = []
        for shard, (probs, _) in zip(self.partition.shards, sampling):
            seeds = np.array(
                [self.epoch_seed(shard.worker_id, e) for e in range(start_epoch, epochs)],
                dtype=np.int64,
            )
            task = WorkerTask(
                worker_id=shard.worker_id,
                arena=arena.spec(),
                probabilities=probs,
                step_size=self.step_size,
                objective=self.objective,
                epoch_seeds=seeds,
                rule=self.rule,
                kernel_name=self.kernel_name,
                start_epoch=start_epoch,
            )
            procs.append(ctx.Process(target=run_worker, args=(task, lock), daemon=True))
        for proc in procs:
            proc.start()
        self._notify("fleet_spawned", {"epoch": start_epoch, "procs": procs, "arena": arena})
        return procs

    def _arm_stealing(self, arena: ShmArena, state: _RunState) -> bool:
        """Decide (and publish) whether this epoch's workers may steal."""
        if self.num_workers < 2:
            armed = False
        elif self.work_stealing is True:
            armed = True
        elif self.work_stealing is False:
            armed = False
        else:  # "auto": planned partition skew or last epoch's measured skew
            planned = work_skew(np.asarray(self._iterations, dtype=np.float64))
            armed = max(planned, state.last_work_skew) > STEAL_SKEW_THRESHOLD
        arena["steal_enabled"][0] = 1 if armed else 0
        return armed

    # ------------------------------------------------------------------ #
    @staticmethod
    def _reap(procs) -> None:
        """Join worker processes briefly, escalating to SIGTERM then SIGKILL.

        The final SIGKILL also fells workers stopped by SIGSTOP, which
        ignore SIGTERM while suspended.
        """
        for proc in procs:
            proc.join(timeout=2.0)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)

    @staticmethod
    def _await_arrivals(arena: ShmArena, procs, gen: int) -> None:
        """Wait until every worker has arrived at barrier generation ``gen``.

        The driver side of the generation barrier (see
        :func:`repro.cluster.worker.barrier_phase` for why
        ``multiprocessing.Barrier`` cannot be used in a kill-prone tier).
        The same poll doubles as the watchdog: a worker that died — even
        *before* reaching its first barrier (spawn bootstrap failure, OOM
        kill) — or raised is detected here, the abort flag is published so
        the survivors stop instead of dead-waiting, and a
        :class:`WorkerFailure` naming the dead workers and their exit
        codes/signals is raised.
        """
        arrive = arena["barrier_arrive"]
        state = arena["barrier_state"]
        errors = arena["errors"]
        deadline = time.monotonic() + BARRIER_TIMEOUT
        while True:
            if bool(np.all(arrive >= gen)):
                return
            failed = errors.any() or any(
                not proc.is_alive() and proc.exitcode not in (0, None)
                for proc in procs
            )
            if failed or time.monotonic() > deadline:
                state[1] = 1
                raise _collect_worker_failure(procs, arena)
            time.sleep(0.001)

    @staticmethod
    def _release(arena: ShmArena, gen: int) -> None:
        """Open barrier generation ``gen`` for every parked worker."""
        arena["barrier_state"][0] = gen

    def _run_epoch(
        self,
        epoch: int,
        fleet_start: int,
        arena: ShmArena,
        procs,
        state: _RunState,
        total_inner: int,
    ) -> None:
        """Drive one epoch: prep, two barrier generations, and the fold of
        the epoch into a copy of ``state.cut``."""
        d = self.X.n_cols
        w = arena["weights"]
        counters = arena["counters"]
        shard_writes = arena["shard_writes"]
        is_svrg = self.rule in ("svrg", "svrg_skip_dense")
        gen_start = 2 * (epoch - fleet_start) + 1
        gen_end = gen_start + 1

        event = EpochEvent(epoch=epoch)
        # The timed window covers the whole per-epoch algorithm cost,
        # including the driver-side serial work: SVRG's sync step
        # (snapshot + full gradient — the dominant serial fraction of
        # an SVRG epoch) and the skip-µ epoch-level dense add.  Only
        # metrics bookkeeping (snapshots, counter reads) stays out.
        started = time.perf_counter()
        if is_svrg:
            arena["mu"][...] = self.objective.full_gradient(w, self.X, self.y)
            arena["snap_margins"][...] = self.X.dot(w)
            fold_sync_step(event, nnz=self.X.nnz, dim=d)
        armed = self._arm_stealing(arena, state)
        self._await_arrivals(arena, procs, gen_start)  # workers parked at epoch start
        self._release(arena, gen_start)                # release the epoch
        # The epoch cannot finish while this hook runs: workers park at the
        # end generation until the driver releases it, which happens only
        # after this returns — the deterministic mid-epoch window the
        # fault-injection harness strikes in.
        self._notify(
            "epoch_running",
            {"epoch": epoch, "procs": procs, "arena": arena,
             "total_iterations": total_inner, "gen_end": gen_end},
        )
        self._await_arrivals(arena, procs, gen_end)    # workers finished, parked

        if self.rule == "svrg_skip_dense":
            # Accumulated dense term, applied once per epoch (the
            # paper's skip-µ ablation), exactly as the simulated
            # engines do.
            w += total_inner * (-self.step_size) * arena["mu"]
            fold_sync_step(event, nnz=0, dim=d)
        elapsed = time.perf_counter() - started

        # Every worker is parked at the end generation, so the counters hold
        # exactly this epoch's work; zero them for the next one.
        delta = counters.copy()
        totals = shard_writes.sum(axis=0)
        counters[...] = 0
        shard_writes[...] = 0

        iters = fold_worker_counters(
            event, delta, max_delay=int(delta[:, COL_MAX_DELAY].max(initial=0))
        )
        cut = state.cut.copy()
        cut.epoch = epoch + 1
        cut.num_workers = self.num_workers
        cut.weights = w.copy()
        cut.sampler = self._sampler_position(epoch + 1)
        cut.shard_write_totals = cut.shard_write_totals + totals
        cut.trace.add_epoch(event)
        cut.epoch_seconds.append(elapsed)
        cut.epoch_mean_delay.append(float(delta[:, COL_DELAY_SUM].sum()) / max(iters, 1))
        cut.epoch_occupancy_skew.append(occupancy_skew(totals))
        cut.epoch_steals.append(int(delta[:, COL_STEALS].sum()))
        state.cut = cut
        if armed:
            state.steal_epochs += 1
        state.last_work_skew = work_skew(delta[:, COL_ITERATIONS].astype(np.float64))
        if self.epoch_callback is not None:
            self.epoch_callback(epoch, w.copy())
        # Everything above read the arena while every worker was parked at
        # the end generation (fully quiescent); now let them move on.
        self._release(arena, gen_end)

    def _drive(
        self,
        epochs: int,
        arena: ShmArena,
        state: _RunState,
        sampling,
    ) -> ClusterRunResult:
        start_method = default_start_method()
        ctx = mp.get_context(start_method)
        total_inner = sum(self._iterations)
        procs = []
        fleet_start = state.start_epoch
        try:
            if state.start_epoch < epochs:
                procs = self._spawn_fleet(ctx, arena, sampling, state.start_epoch, epochs)
            epoch = state.start_epoch
            while epoch < epochs:
                try:
                    self._run_epoch(epoch, fleet_start, arena, procs, state, total_inner)
                except WorkerFailure:
                    self._reap(procs)
                    state.respawns += 1
                    if state.respawns > self.max_respawns:
                        raise
                    # Elastic recovery: roll the arena back to the last
                    # consistent cut and replay from there with a fresh
                    # fleet (the interrupted epoch restarts).
                    epoch = fleet_start = state.cut.epoch
                    self._notify(
                        "respawn",
                        {"epoch": epoch, "respawns": state.respawns},
                    )
                    self._restore(arena, state.cut)
                    procs = self._spawn_fleet(ctx, arena, sampling, epoch, epochs)
                    continue
                epoch += 1
                if self.checkpoint_store is not None and (
                    epoch % self.checkpoint_every == 0 or epoch == epochs
                ):
                    self.checkpoint_store.save(state.cut)
                    state.checkpoints_persisted += 1
        except WorkerFailure:
            raise  # fleet already reaped above
        except BaseException:
            # Driver-side failure (KeyboardInterrupt, SVRG prep error, a
            # fault hook assertion, ...): raise the abort flag so workers
            # unblock immediately instead of sitting out the full barrier
            # timeout, then reap them.
            arena["barrier_state"][1] = 1
            self._reap(procs)
            raise

        for proc in procs:
            proc.join(timeout=BARRIER_TIMEOUT)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                raise RuntimeError("cluster worker failed to exit after the final epoch")

        cut = state.cut
        totals = cut.shard_write_totals.astype(np.float64)
        fractions = totals / totals.sum() if totals.sum() > 0 else totals
        info = {
            "num_workers": self.num_workers,
            "start_method": start_method,
            "available_parallelism": available_parallelism(),
            "mean_measured_delay": (
                float(np.mean(cut.epoch_mean_delay)) if cut.epoch_mean_delay else 0.0
            ),
            "measured_conflict_rate": cut.trace.conflict_rate(),
            "occupancy_skew": (
                float(np.mean(cut.epoch_occupancy_skew)) if cut.epoch_occupancy_skew else 0.0
            ),
            "fault_tolerant": self.max_respawns > 0,
            "respawns": state.respawns,
            "resumed_from_epoch": state.start_epoch,
            "work_stealing": (
                "auto" if self.work_stealing == "auto"
                else ("on" if self.work_stealing else "off")
            ),
            "steal_epochs": state.steal_epochs,
            "steal_count": int(sum(cut.epoch_steals)),
            "checkpoint_every": self.checkpoint_every,
            "checkpoints_persisted": state.checkpoints_persisted,
        }
        return ClusterRunResult(
            weights=cut.weights,
            trace=cut.trace,
            epoch_seconds=cut.epoch_seconds,
            epoch_mean_delay=cut.epoch_mean_delay,
            epoch_occupancy_skew=cut.epoch_occupancy_skew,
            epoch_steals=cut.epoch_steals,
            shard_write_fractions=fractions,
            info=info,
        )


__all__ = [
    "ClusterDriver",
    "ClusterRunResult",
    "WorkerFailure",
    "default_start_method",
    "available_parallelism",
    "START_METHOD_ENV_VAR",
    "STEAL_SKEW_THRESHOLD",
]
