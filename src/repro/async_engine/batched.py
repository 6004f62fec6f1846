"""Batched macro-step execution engine for the asynchronous simulator.

:class:`~repro.async_engine.simulator.AsyncSimulator` reproduces asynchrony
one Python-level iteration at a time — a stale read reconstructed
record-by-record, then a scalar update.  That is the semantics the paper's
Section 3 analysis wants, but it makes reproducing the *speedup* figures the
slowest path in the repository.

:class:`BatchedSimulator` is the fast path.  It shares the per-sample
engine's epoch driver — the same schedule, delays, samples and step weights
per epoch — and runs the epoch in **macro-steps** of ``batch_size``
consecutive iterations over slices of those arrays:

1. the touched rows are gathered once (:meth:`CSRMatrix.gather_rows`) and
   all block margins are computed at the block-start iterate through the
   kernel backend (:meth:`KernelBackend.segment_margins` →
   :meth:`Objective.batch_grad_coeffs` inside the update rule);
2. the per-entry update deltas of the whole block are folded into the model
   with one scatter-add (:meth:`KernelBackend.scatter_add` — a
   bincount-style accumulation in the vectorized backend);
3. the per-iteration staleness/conflict accounting of the per-sample engine
   is **replayed exactly**: each iteration's conflicts are recomputed
   against the same bounded update history the per-sample
   :class:`SharedModel` would have walked.

Semantics vs the per-sample engine
----------------------------------
The *trace* (iterations, sparse/dense coordinate counts, conflicts, stale
reads, delays) is bit-identical to the per-sample simulator, because the
schedule and delays come from the shared driver and the conflict window
arithmetic is replayed exactly.  The *iterates* are not bitwise
equal: inside one macro-step every read observes the block-start model
rather than the partially-updated one, i.e. batching injects an additional
staleness of up to ``batch_size - 1`` updates.  That is the same
perturbed-iterate approximation the paper's analysis already allows — with
the default ``batch_size = num_workers * (max_delay + 1)`` the extra lag
stays on the scale of the modelled delay ``τ`` — so batched runs remain
*statistically* faithful: the parity suite in
``tests/async_engine/test_batched.py`` pins traces exactly and final
iterates within tolerance for all three async solvers.

One caveat is inherent to batching: a worker does not see its own writes
within a macro-step (per-sample workers always do).  Choose ``batch_size``
accordingly when the step size is aggressive; the per-sample engine remains
the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np

from repro.async_engine.events import EpochEvent
from repro.async_engine.simulator import MAX_HISTORY, AsyncSimulator
from repro.runtime.trace_fold import fold_block
from repro.sparse.ops import segment_bool_any


@dataclass
class _RecordLog:
    """Rolling tail of the per-sample engine's update-record stream.

    Only the metadata needed to replay conflict accounting is kept — the
    writer, the record kind (dense/sparse), for sparse records the row whose
    support was written, and for dense records a reference into the
    simulator's table of dense-support masks (so a stale read is tested
    against the support the record *actually* wrote, exactly like
    ``UpdateRecord.indices``).  ``total`` counts every record ever written
    (the per-sample model's ``version``); the arrays hold the most recent
    ``keep`` of them.
    """

    keep: int
    total: int = 0
    kind: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int8))
    worker: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    row: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    dense_ref: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def append(
        self, kind: np.ndarray, worker: np.ndarray, row: np.ndarray, dense_ref: np.ndarray
    ) -> None:
        self.total += kind.size
        self.kind = np.concatenate([self.kind, kind])[-self.keep :]
        self.worker = np.concatenate([self.worker, worker])[-self.keep :]
        self.row = np.concatenate([self.row, row])[-self.keep :]
        self.dense_ref = np.concatenate([self.dense_ref, dense_ref])[-self.keep :]


@dataclass
class BatchedSimulator(AsyncSimulator):
    """Macro-step execution of asynchronous SGD-style solvers.

    Drop-in counterpart of :class:`~repro.async_engine.simulator.AsyncSimulator`
    (same constructor surface plus ``batch_size``), selected per solver via
    ``async_mode="batched"`` or globally via the ``REPRO_ASYNC_MODE``
    environment variable (see :mod:`repro.runtime`).  It runs the same
    epoch driver, so the same seed yields the identical schedule, delay
    sequence and samples; only the epoch body differs.

    Parameters
    ----------
    batch_size:
        Iterations per macro-step, or ``"auto"`` for
        ``num_workers * (max_delay + 1)`` — an extra lag on the scale of the
        modelled delay.  Larger blocks are faster but staler.

    The other parameters are :class:`AsyncSimulator`'s.  Here ``kernel``
    also computes the batched margins and scatter-adds, the rule's
    :meth:`~repro.rules.base.UpdateRuleKernel.block_entry_weights` computes
    a whole macro-step, and a ``history`` override is replayed with the
    per-sample window arithmetic, so traces stay bit-equal under it too.
    """

    batch_size: Union[int, str] = "auto"

    def __post_init__(self) -> None:
        super().__post_init__()
        if isinstance(self.batch_size, str):
            if self.batch_size != "auto":
                raise ValueError("batch_size must be a positive int or 'auto'")
        elif int(self.batch_size) < 1:
            raise ValueError("batch_size must be a positive int or 'auto'")

    def resolved_batch_size(self) -> int:
        """The macro-step length actually used."""
        if self.batch_size == "auto":
            tau = self.staleness.max_delay
            return int(min(max(self.num_workers * (tau + 1), 1), MAX_HISTORY))
        return int(self.batch_size)

    def apply_dense_update(self, delta: np.ndarray, *, worker_id: int = -1) -> None:
        """Apply ``w += delta`` and log one dense update record.

        Epoch hooks use this (e.g. SVRG's accumulated ``-λµ`` term in
        skip-dense mode) so the dense write participates in the conflict
        replay exactly as :meth:`SharedModel.apply_dense_update` would —
        including the record's support, ``nonzero(delta)``.
        """
        if self._w is None:
            raise RuntimeError("apply_dense_update is only valid while run() is active")
        self._w += delta
        self._log.append(
            np.zeros(1, dtype=np.int8),
            np.full(1, worker_id, dtype=np.int64),
            np.full(1, -1, dtype=np.int64),
            np.full(1, self._register_dense_mask(delta), dtype=np.int64),
        )
        self._prune_dense_masks()

    def _register_dense_mask(self, vec: np.ndarray) -> int:
        """Store ``nonzero(vec)`` as a support mask; returns its reference id."""
        ref = self._dense_ref_counter
        self._dense_ref_counter += 1
        self._dense_masks[ref] = vec != 0
        return ref

    def _prune_dense_masks(self) -> None:
        """Drop support masks no longer referenced by the retained tail."""
        live = {int(r) for r in self._log.dense_ref[self._log.kind == 0]}
        live.add(self._last_dense_ref)
        self._dense_masks = {k: v for k, v in self._dense_masks.items() if k in live}

    # ------------------------------------------------------------------ #
    # The batched epoch body
    # ------------------------------------------------------------------ #
    def _start(self, w: np.ndarray) -> np.ndarray:
        self._maxlen = self._history()
        rpi = self.update_rule.records_per_iteration
        # A stale read looks back at most max_delay records; keep one extra
        # iteration's worth so block boundaries never truncate a window.
        self._log = _RecordLog(keep=max(min(self.staleness.max_delay, self._maxlen) + rpi, rpi))
        self._dense_masks: dict[int, np.ndarray] = {}
        self._dense_ref_counter = 0
        self._last_dense_obj = None
        self._last_dense_ref = -1
        return w

    def _stop(self) -> None:
        self._log = None
        self._dense_masks = {}

    def _run_epoch(
        self,
        event: EpochEvent,
        wids: np.ndarray,
        rows: np.ndarray,
        step_weights: np.ndarray,
        delays: np.ndarray,
    ) -> np.ndarray:
        """Run the epoch in macro-steps; returns every iteration's conflicts."""
        block = self.resolved_batch_size()
        return np.concatenate([
            self._run_block(
                event,
                wids[start : start + block],
                rows[start : start + block],
                step_weights[start : start + block],
                delays[start : start + block],
            )
            for start in range(0, wids.size, block)
        ])

    def _run_block(
        self,
        event: EpochEvent,
        wids: np.ndarray,
        rows: np.ndarray,
        step_weights: np.ndarray,
        delays: np.ndarray,
    ) -> np.ndarray:
        """Execute one macro-step; returns its per-iteration conflict counts."""
        w = self._w
        rule = self.update_rule
        n_iter = rows.size

        idx, val, lengths = self.X.gather_rows(rows)
        # Stateless SGD-style rules on a kernel with a fused frozen-block
        # primitive skip the composable margins → entry-weights → scatter
        # sequence: the whole macro-step (same frozen-margin semantics, same
        # regulariser-at-block-start evaluation) runs as one native call
        # after the conflict replay below.
        fused = (
            rule.frozen_fusable
            and self.kernel.fused_sample_block
            and self.kernel.supports_objective(rule.objective)
        )
        entry_weights = None
        if not fused:
            margins = self.kernel.segment_margins(idx, val, lengths, w)
            entry_weights = rule.block_entry_weights(
                w=w,
                rows=rows,
                y=self.y[rows],
                margins=margins,
                step_weights=step_weights,
                idx=idx,
                val=val,
                lengths=lengths,
            )

        # Register the support of the rule's dense delta (one mask per
        # distinct vector — SVRG installs a fresh -λµ each epoch), then
        # replay the per-sample conflict accounting against the pre-update
        # history plus this block's own record stream.
        dense = rule.dense_delta
        if dense is not None and self._last_dense_obj is not dense:
            self._last_dense_ref = self._register_dense_mask(dense)
            self._last_dense_obj = dense
        block_records = self._block_records(
            wids, rows, self._last_dense_ref if dense is not None else -1
        )
        conflicts = self._replay_conflicts(rows, wids, delays, idx, lengths, block_records)

        if dense is not None:
            w += n_iter * dense
        if fused:
            self.kernel.run_frozen_block(
                w, rule.objective, idx, val, lengths, self.y[rows],
                -rule.step_size * step_weights,
            )
        else:
            self.kernel.scatter_add(w, idx, entry_weights)
        self._log.append(*block_records)
        self._prune_dense_masks()

        # Replay SharedModel.read_stale's explicit history clamp: iteration
        # k reads at record position log.total + rpi*k with at most _maxlen
        # retained records; a requested delay beyond what is retained *and*
        # ever written counts as a truncated reconstruction.
        rpi = rule.records_per_iteration
        read_pos = self._log.total - rpi * n_iter + rpi * np.arange(n_iter, dtype=np.int64)
        avail = np.minimum(read_pos, self._maxlen)
        overflows = int(
            np.count_nonzero((delays > avail) & (read_pos > avail) & (lengths > 0))
        )

        fold_block(
            event,
            rule,
            iterations=n_iter,
            support_nnz=int(lengths.sum()),
            conflicts=int(conflicts.sum()),
            delays=delays,
            history_overflows=overflows,
        )
        return conflicts

    # ------------------------------------------------------------------ #
    def _block_records(
        self, wids: np.ndarray, rows: np.ndarray, dense_ref: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """This block's ``(kind, worker, row, dense_ref)`` record stream.

        One sparse record per iteration, preceded by ``rpi - 1`` dense
        records (SVRG applies its dense µ term before the sparse delta, so
        within an iteration the sparse record comes last).
        """
        rpi = self.update_rule.records_per_iteration
        n_iter = wids.size
        if rpi == 1:
            return np.ones(n_iter, dtype=np.int8), wids, rows, np.full(n_iter, -1, dtype=np.int64)
        per_iter = np.concatenate([np.zeros(rpi - 1, dtype=np.int8), np.ones(1, dtype=np.int8)])
        kind = np.tile(per_iter, n_iter)
        worker = np.repeat(wids, rpi)
        row = np.where(kind == 1, np.repeat(rows, rpi), -1)
        ref = np.where(kind == 0, dense_ref, -1).astype(np.int64)
        return kind, worker, row, ref

    def _replay_conflicts(
        self,
        rows: np.ndarray,
        wids: np.ndarray,
        delays: np.ndarray,
        idx: np.ndarray,
        lengths: np.ndarray,
        block_records: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> np.ndarray:
        """Per-iteration conflict counts, replaying the per-sample semantics.

        Iteration ``k`` of the block reads at record position
        ``R_k = total_records + rpi * k`` and misses the last
        ``min(delay_k, R_k, maxlen)`` records; every missed record written
        by another worker whose support intersects the read support counts
        once — exactly :meth:`SharedModel.read_stale`.
        """
        n_iter = rows.size
        conflicts = np.zeros(n_iter, dtype=np.int64)
        max_delay = int(self.staleness.max_delay)
        if max_delay == 0:
            return conflicts
        rpi = self.update_rule.records_per_iteration
        log = self._log

        # Record positions and clamped window lengths.
        read_pos = log.total + rpi * np.arange(n_iter, dtype=np.int64)
        eff = np.minimum(delays, np.minimum(read_pos, self._maxlen))
        eff = np.where(lengths > 0, eff, 0)  # empty-support reads never conflict
        if not eff.any():
            return conflicts

        # Combined record view: retained tail + this block's records, with
        # implicit positions base + j for combined index j.
        n_tail = log.kind.size
        base = log.total - n_tail
        blk_kind, blk_worker, blk_row, blk_ref = block_records
        kind = np.concatenate([log.kind, blk_kind])
        worker = np.concatenate([log.worker, blk_worker])
        row = np.concatenate([log.row, blk_row])
        dense_ref = np.concatenate([log.dense_ref, blk_ref])

        lo = read_pos - eff - base  # combined-index window [lo, hi)
        hi = read_pos - base
        lo = np.maximum(lo, 0)

        # ---- dense records: one conflict per foreign dense write whose ---- #
        # ---- recorded support (nonzero of the written delta) touches  ---- #
        # ---- the read support, grouped by support mask                ---- #
        if (kind == 0).any():
            for ref in np.unique(dense_ref[kind == 0]):
                mask_vec = self._dense_masks.get(int(ref))
                if mask_vec is not None:
                    hit = segment_bool_any(mask_vec[idx], lengths)
                else:  # untracked record (defensive): assume a dense support
                    hit = lengths > 0
                is_ref = (kind == 0) & (dense_ref == ref)
                prefix_total = np.concatenate([[0], np.cumsum(is_ref)])
                total_cnt = prefix_total[hi] - prefix_total[lo]
                own_cnt = np.zeros(n_iter, dtype=np.int64)
                for worker_id in np.unique(wids):
                    sel = wids == worker_id
                    prefix_own = np.concatenate([[0], np.cumsum(is_ref & (worker == worker_id))])
                    own_cnt[sel] = (prefix_own[hi] - prefix_own[lo])[sel]
                conflicts += np.where(hit, total_cnt - own_cnt, 0)

        # ---- sparse records: one sort over (column, record) keys ---- #
        sparse_mask = kind == 1
        spos = np.nonzero(sparse_mask)[0]  # combined indices of sparse records
        if spos.size == 0:
            return conflicts
        sworker = worker[spos]
        # Local sparse index of each reader's own record: block iteration k is
        # the (n_tail_sparse + k)-th sparse record.
        n_tail_sparse = int(np.count_nonzero(log.kind == 1))
        reader_q = n_tail_sparse + np.arange(n_iter, dtype=np.int64)
        # Window bounds in sparse-index space.
        lo_q = np.searchsorted(spos, lo, side="left")
        max_width = int((reader_q - lo_q).max(initial=0))
        if max_width <= 0 or idx.size == 0:
            return conflicts

        # Gather supports for the tail's sparse rows once (block rows reuse
        # the already-gathered arrays; sparse records always carry a real row).
        n_sparse = spos.size
        t_idx, _t_val, t_lengths = self.X.gather_rows(row[spos[:n_tail_sparse]])
        t_keys = t_idx.astype(np.int64) * n_sparse + np.repeat(
            np.arange(n_tail_sparse, dtype=np.int64), t_lengths
        )
        # One key per (column, record) touch; a row's columns are distinct,
        # so the keys are unique and one sort orders them by column, then
        # record.
        b_keys = idx.astype(np.int64) * n_sparse + np.repeat(reader_q, lengths)
        keys = np.sort(np.concatenate([t_keys, b_keys]))
        q = keys % n_sparse
        # The touches a block reader's entry missed are the earlier records
        # of its column inside the reader's window: the run of sorted keys
        # from (column, lo_q) up to the entry's own position.
        own = np.flatnonzero(q >= n_tail_sparse)
        k_own = q[own] - n_tail_sparse
        first = np.searchsorted(keys, keys[own] - q[own] + lo_q[k_own])
        run = own - first
        total = int(run.sum())
        if total == 0:
            return conflicts
        run_start = np.cumsum(run) - run
        pos = np.repeat(first - run_start, run) + np.arange(total, dtype=np.int64)
        writers = q[pos]
        readers = np.repeat(k_own, run)
        foreign = sworker[writers] != wids[readers]
        readers, writers = readers[foreign], writers[foreign]
        # One undone update counts once however many coordinates it hits:
        # sort the (reader, reader - writer) keys, keep the first of each
        # run, then count per reader.  Memory grows with the pairs found,
        # not with the window; a plain sort is far cheaper than np.unique.
        width = max_width + 1
        pairs = np.sort(readers * width + (reader_q[readers] - writers))
        keep = np.ones(pairs.size, dtype=bool)
        np.not_equal(pairs[1:], pairs[:-1], out=keep[1:])
        conflicts += np.bincount(pairs[keep] // width, minlength=n_iter)
        return conflicts


__all__ = ["BatchedSimulator"]
