"""The perturbed-iterate asynchronous execution simulator.

The simulator interleaves the iterations of ``num_workers`` simulated
workers against one shared model.  :class:`AsyncSimulator` owns the epoch
driver both simulated tiers run; per epoch it:

1. calls the rule's ``epoch_begin`` hook and refreshes the workers'
   sequences;
2. draws the randomised round-robin schedule (:func:`build_schedule`) and,
   right after it, every iteration's delay in one
   :meth:`~repro.async_engine.staleness.StalenessModel.draw_batch`;
3. takes each worker's scheduled samples and importance re-weighting
   factors in one :meth:`~repro.async_engine.worker.SimulatedWorker.next_samples`
   slice, placed at the worker's schedule positions;
4. runs the tier's epoch body over those arrays, which folds its counters
   into the epoch trace through :func:`~repro.runtime.trace_fold.fold_block`;
5. calls ``epoch_end``, records per-iteration events when asked and hands
   the weights to ``epoch_callback``.

The per-sample body (this class) walks the epoch one update at a time: the
worker *reads* the model on the sample's support with its drawn staleness
(the perturbed iterate ``ŵ_t = w_t + θ_t`` of Section 3.1, reconstructed
by :meth:`SharedModel.read_stale`), the rule computes the
index-compressed update through its scalar entry point, and the update is
applied at once.  :class:`~repro.async_engine.batched.BatchedSimulator`
runs macro-steps over slices of the same arrays instead.

The driver is solver-agnostic: it executes any
:class:`~repro.rules.base.UpdateRuleKernel` and invokes the rule's epoch
hooks around every epoch — SVRG's snapshot sync runs here without the
simulator knowing the rule exists.
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
from repro.runtime.backends import ExecutionResult
from repro.runtime.trace_fold import build_schedule, fold_block
from repro.sparse.csr import CSRMatrix
from repro.utils.rng import RandomState, as_rng

#: Most update records a stale read reaches back over, on either tier.
MAX_HISTORY = 4096


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
        Seed (or shared ``Generator``) for the scheduler interleaving and
        delay draws; both tiers draw the same schedule and delays from it.
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
        Update records a stale read can reach back over; defaults to
        ``max(max_delay, 1) * num_workers`` (capped at :data:`MAX_HISTORY`),
        which is always large enough for the configured staleness model.
        Smaller overrides make stale reads reconstruct from a truncated
        window — explicitly clamped and surfaced as ``history_overflows``
        on the trace.
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
        if self.history is not None and int(self.history) < 0:
            raise ValueError("history must be >= 0")
        self._rng = as_rng(self.seed)
        if self.staleness is None:
            self.staleness = UniformDelay(len(self.workers) - 1)
        self.kernel = resolve_backend(self.kernel)
        self._w: Optional[np.ndarray] = None
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
        """The live weight buffer of the current run (hooks may read it)."""
        if self._w is None:
            raise RuntimeError("weights are only available while run() is active")
        return self._w

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
    # The epoch driver
    # ------------------------------------------------------------------ #
    def run(
        self,
        epochs: int,
        *,
        initial_weights: Optional[np.ndarray] = None,
        reshuffle: bool = True,
        regenerate: bool = False,
    ) -> ExecutionResult:
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
        d = self.X.n_cols
        if initial_weights is None:
            w = np.zeros(d, dtype=np.float64)
        else:
            w = np.array(initial_weights, dtype=np.float64)
            if w.shape != (d,):
                raise ValueError(f"initial_weights must have shape ({d},)")
        rule = self.update_rule
        trace = ExecutionTrace(iterations=[] if self.record_iterations else None)
        self._w = self._start(w)
        try:
            for epoch in range(epochs):
                event = EpochEvent(epoch=epoch)
                rule.epoch_begin(self, epoch, event)
                if epoch > 0:
                    for worker in self.workers:
                        worker.start_epoch(reshuffle=reshuffle, regenerate=regenerate)
                wids = build_schedule(self.workers, self._rng)
                delays = self.staleness.draw_batch(self._rng, wids.size)
                rows = np.empty(wids.size, dtype=np.int64)
                step_weights = np.empty(wids.size, dtype=np.float64)
                for worker in self.workers:
                    mask = wids == worker.worker_id
                    rows[mask], _local, step_weights[mask] = worker.next_samples(int(mask.sum()))

                conflicts = self._run_epoch(event, wids, rows, step_weights, delays)

                if trace.iterations is not None:
                    first = len(trace.iterations)
                    # In IterationEvent's field order, after global_step.
                    columns = zip(wids.tolist(), rows.tolist(), delays.tolist(),
                                  conflicts.tolist(), self.X.row_nnz()[rows].tolist(),
                                  step_weights.tolist())
                    trace.iterations.extend(
                        IterationEvent(first + k, *column) for k, column in enumerate(columns)
                    )
                rule.epoch_end(self, epoch, event)
                trace.add_epoch(event)
                if self.epoch_callback is not None:
                    self.epoch_callback(epoch, self._w.copy())
            return ExecutionResult(weights=self._w.copy(), trace=trace)
        finally:
            self._w = None
            self._stop()

    def _history(self) -> int:
        """Update records a stale read can reach back over (see ``history``)."""
        if self.history is not None:
            return min(int(self.history), MAX_HISTORY)
        return min(max(self.staleness.max_delay, 1) * self.num_workers, MAX_HISTORY)

    # ------------------------------------------------------------------ #
    # The per-sample epoch body
    # ------------------------------------------------------------------ #
    def _start(self, w: np.ndarray) -> np.ndarray:
        """Set up the run's model around ``w``; returns the live weight buffer."""
        self._model = SharedModel(self.X.n_cols, history=self._history(), initial=w)
        return self._model.weights

    def _stop(self) -> None:
        self._model = None

    def _run_epoch(
        self,
        event: EpochEvent,
        wids: np.ndarray,
        rows: np.ndarray,
        step_weights: np.ndarray,
        delays: np.ndarray,
    ) -> np.ndarray:
        """Run one epoch's iterations in order; returns their conflict counts."""
        model = self._model
        rule = self.update_rule
        dense = rule.dense_delta
        overflows = model.history_overflow
        conflicts = np.empty(wids.size, dtype=np.int64)
        for k, (wid, row, step_weight, delay) in enumerate(zip(
            wids.tolist(), rows.tolist(), step_weights.tolist(), delays.tolist()
        )):
            x_idx, x_val = self.X.row(row)
            stale_coords, conflicts[k] = model.read_stale(x_idx, delay, writer_id=wid)
            delta_values = rule.compute_update(
                stale_coords, x_idx, x_val, float(self.y[row]), step_weight, row=row
            )
            if dense is not None:
                model.apply_dense_update(dense, worker_id=wid)
            model.apply_update(x_idx, delta_values, worker_id=wid)
        fold_block(
            event,
            rule,
            iterations=wids.size,
            support_nnz=int(self.X.row_nnz()[rows].sum()),
            conflicts=int(conflicts.sum()),
            delays=delays,
            history_overflows=model.history_overflow - overflows,
        )
        return conflicts


__all__ = ["AsyncSimulator"]
