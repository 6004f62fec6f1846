"""The perturbed-iterate asynchronous execution simulator.

The simulator interleaves the iterations of ``num_workers`` simulated
workers against one :class:`~repro.async_engine.shared_model.SharedModel`.
Each iteration:

1. the scheduler picks the next worker (randomised round-robin);
2. the worker provides its next sample and importance re-weighting factor;
3. the worker *reads* the model coordinates on the sample's support with a
   random staleness drawn from the staleness model — this is the perturbed
   iterate ``ŵ_t = w_t + θ_t`` of Section 3.1;
4. the update rule computes the index-compressed (plus optionally dense)
   update from the stale view;
5. the update is applied atomically to the shared model and the conflict /
   operation counters are folded into the epoch trace through
   :mod:`repro.runtime.trace_fold`.

The simulator is solver-agnostic: it executes any
:class:`~repro.rules.base.UpdateRuleKernel` through the rule's scalar entry
point, and
invokes the rule's epoch hooks around every epoch — SVRG's snapshot sync
runs here without the simulator knowing the rule exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from repro.async_engine.events import EpochEvent, ExecutionTrace, IterationEvent
from repro.async_engine.shared_model import SharedModel
from repro.async_engine.staleness import StalenessModel, UniformDelay
from repro.async_engine.worker import SimulatedWorker
from repro.kernels.base import KernelBackend
from repro.kernels.registry import resolve_backend
from repro.rules.base import UpdateRuleKernel
from repro.runtime.trace_fold import build_schedule, fold_iteration
from repro.sparse.csr import CSRMatrix
from repro.utils.rng import RandomState, as_rng


@dataclass
class SimulationResult:
    """Outcome of :meth:`AsyncSimulator.run`."""

    weights: np.ndarray
    trace: ExecutionTrace


@dataclass
class AsyncSimulator:
    """Simulated lock-free execution of asynchronous SGD-style solvers.

    Parameters
    ----------
    X, y:
        The full design matrix and labels (workers index into them by
        global row index).
    workers:
        The simulated workers (shards + sequences), one per thread.
    update_rule:
        The registered update rule (:mod:`repro.rules`).
    staleness:
        Delay model; defaults to ``UniformDelay(num_workers - 1)``.
    seed:
        Seed for the scheduler interleaving and delay draws.
    kernel:
        Kernel backend handed to rule epoch hooks (snapshot margins, table
        initialisation); instance, registry name or ``None`` for the
        configured default.
    record_iterations:
        Keep per-iteration events (memory-heavy; tests only).
    epoch_callback:
        Optional callable invoked once after every epoch, in order, with
        ``(epoch_index, weights)``; ``weights`` is a copy the callee may
        keep.  Solvers evaluate their convergence curve through it.
    history:
        Size of the shared model's bounded update history; defaults to
        ``max(max_delay, 1) * num_workers`` (capped at 4096), which is
        always large enough for the configured staleness model.  Smaller
        overrides make stale reads reconstruct from a truncated window —
        explicitly clamped and surfaced as ``history_overflows`` on the
        trace.
    """

    X: CSRMatrix
    y: np.ndarray
    workers: List[SimulatedWorker]
    update_rule: UpdateRuleKernel
    staleness: Optional[StalenessModel] = None
    seed: RandomState = 0
    kernel: Union[KernelBackend, str, None] = None
    record_iterations: bool = False
    epoch_callback: Optional[Callable[[int, np.ndarray], None]] = None
    history: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.workers:
            raise ValueError("at least one worker is required")
        if self.y.shape[0] != self.X.n_rows:
            raise ValueError("X and y row counts differ")
        self._rng = as_rng(self.seed)
        if self.staleness is None:
            self.staleness = UniformDelay(max(len(self.workers) - 1, 0))
        self.kernel = resolve_backend(self.kernel)
        self._model: Optional[SharedModel] = None

    @property
    def num_workers(self) -> int:
        """Number of simulated workers."""
        return len(self.workers)

    # ------------------------------------------------------------------ #
    # EngineFacade surface (rule epoch hooks)
    # ------------------------------------------------------------------ #
    @property
    def weights(self) -> np.ndarray:
        """Snapshot of the live model (hooks may read it)."""
        if self._model is None:
            raise RuntimeError("weights are only available while run() is active")
        return self._model.snapshot()

    @property
    def inner_iterations(self) -> int:
        """Inner iterations per epoch (all workers combined)."""
        return sum(w.iterations_per_epoch for w in self.workers)

    def apply_dense_update(self, delta: np.ndarray, *, worker_id: int = -1) -> None:
        """Apply ``w += delta`` as one logged dense update record."""
        if self._model is None:
            raise RuntimeError("apply_dense_update is only valid while run() is active")
        self._model.apply_dense_update(delta, worker_id=worker_id)

    # ------------------------------------------------------------------ #
    def run(
        self,
        epochs: int,
        *,
        initial_weights: Optional[np.ndarray] = None,
        reshuffle: bool = True,
        regenerate: bool = False,
    ) -> SimulationResult:
        """Simulate ``epochs`` passes of asynchronous execution.

        Parameters
        ----------
        epochs:
            Number of epochs; every epoch each worker consumes its full
            sample sequence.
        initial_weights:
            Starting model (zeros by default).
        reshuffle / regenerate:
            Per-epoch sequence refresh policy forwarded to the workers.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.history is not None:
            history = int(self.history)
        else:
            history = max(self.staleness.max_delay, 1) * max(self.num_workers, 1)
        model = SharedModel(self.X.n_cols, history=min(history, 4096), initial=initial_weights)
        self._model = model
        rule = self.update_rule
        epoch_begin = getattr(rule, "epoch_begin", None)
        epoch_end = getattr(rule, "epoch_end", None)
        drew_sample = bool(getattr(rule, "counts_sample_draws", True))

        trace = ExecutionTrace(iterations=[] if self.record_iterations else None)
        global_step = 0

        try:
            for epoch in range(epochs):
                event = EpochEvent(epoch=epoch)
                if epoch_begin is not None:
                    epoch_begin(self, epoch, event)
                if epoch > 0:
                    for worker in self.workers:
                        worker.start_epoch(reshuffle=reshuffle, regenerate=regenerate)
                schedule = build_schedule(self.workers, self._rng)
                worker_by_id = {w.worker_id: w for w in self.workers}

                for wid in schedule:
                    worker = worker_by_id[int(wid)]
                    global_row, _local, step_weight = worker.next_sample()
                    x_idx, x_val = self.X.row(global_row)
                    delay = self.staleness.draw(self._rng)
                    overflow_before = model.history_overflow
                    stale_coords, conflicts = model.read_stale(
                        x_idx, delay, writer_id=worker.worker_id
                    )
                    overflowed = model.history_overflow - overflow_before
                    delta_values, dense_coords = rule.compute_update(
                        stale_coords, x_idx, x_val, float(self.y[global_row]), step_weight,
                        row=global_row,
                    )
                    if dense_coords:
                        dense_delta = getattr(rule, "dense_delta", None)
                        if dense_delta is not None:
                            model.apply_dense_update(dense_delta, worker_id=worker.worker_id)
                    model.apply_update(x_idx, delta_values, worker_id=worker.worker_id)

                    fold_iteration(
                        event,
                        rule,
                        nnz=int(x_idx.size),
                        dense_coords=int(dense_coords),
                        conflicts=conflicts,
                        delay=delay,
                        drew_sample=drew_sample,
                        history_overflow=overflowed,
                    )
                    if self.record_iterations and trace.iterations is not None:
                        trace.iterations.append(
                            IterationEvent(
                                global_step=global_step,
                                worker_id=worker.worker_id,
                                sample_index=global_row,
                                delay=delay,
                                conflicts=conflicts,
                                grad_nnz=int(x_idx.size),
                                step_scale=step_weight,
                            )
                        )
                    global_step += 1

                if epoch_end is not None:
                    epoch_end(self, epoch, event)
                trace.add_epoch(event)
                if self.epoch_callback is not None:
                    self.epoch_callback(epoch, model.snapshot())
        finally:
            self._model = None

        return SimulationResult(weights=model.snapshot(), trace=trace)


__all__ = ["AsyncSimulator", "SimulationResult"]
