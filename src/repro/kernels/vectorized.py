"""Vectorized kernel backend: batched NumPy segment ops over raw CSR arrays.

The backend replaces every batched quantity with one NumPy expression over
the flat CSR ``(data, indices, indptr)`` arrays:

* margins of a row subset — gather + ``np.add.reduceat`` segment sums;
* scatter-add of gathered entries — ``np.unique`` + ``np.bincount`` with
  weights;
* metrics evaluation — a single matvec shared by RMSE and error rate, with
  the per-sample losses from one call into the objective's batch API
  (:meth:`~repro.objectives.base.Objective.batch_loss`).

The sequential per-sample primitive (``sample_update``) performs the *same
floating-point operations* as the reference backend — the margin is an
``np.dot`` over the support and the update touches each support coordinate
exactly once — so serial SGD-style trajectories are bitwise identical
across backends; only genuinely batched reductions (metrics) may differ in
the last ulp due to summation order.

Canonical CSR layout (sorted, duplicate-free column indices within each
row — guaranteed by every :class:`~repro.sparse.csr.CSRMatrix` constructor)
is assumed: ``w[idx] += v`` is then equivalent to ``np.add.at(w, idx, v)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.base import KernelBackend, MetricsEval, check_segments
from repro.objectives.regularizers import NoRegularizer
from repro.sparse.csr import CSRMatrix


def _segment_sums(per_entry: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum ``per_entry`` within consecutive segments of the given lengths.

    Zero-length segments (empty rows) are valid and produce 0; the sentinel
    pad makes ``reduceat`` start indices equal to ``per_entry.size`` legal.
    """
    if per_entry.size == 0:
        return np.zeros(lengths.size, dtype=np.float64)
    starts = np.cumsum(lengths) - lengths
    padded = np.concatenate([per_entry, [0.0]])
    sums = np.add.reduceat(padded, starts)
    return np.asarray(np.where(lengths > 0, sums, 0.0), dtype=np.float64)


class VectorizedKernel(KernelBackend):
    """Batched CSR primitives built on reduceat/bincount segment operations."""

    name = "vectorized"

    # ------------------------------------------------------------------ #
    # CSR linear algebra
    # ------------------------------------------------------------------ #
    def matvec(self, X: CSRMatrix, w: np.ndarray) -> np.ndarray:
        return X.dot(w)

    def margins(
        self, X: CSRMatrix, w: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if rows is None:
            return X.dot(w)
        idx, val, lengths = X.gather_rows(rows)
        return _segment_sums(val * w[idx], lengths)

    def segment_margins(
        self, idx: np.ndarray, val: np.ndarray, lengths: np.ndarray, w: np.ndarray
    ) -> np.ndarray:
        check_segments(idx, val, lengths)
        return _segment_sums(val * w[idx], lengths)

    def scatter_add(self, w: np.ndarray, idx: np.ndarray, weights: np.ndarray) -> None:
        if idx.size == 0:
            return
        # Compress onto the touched columns before the dense write so the
        # cost stays O(nnz log nnz) rather than O(d) per block.
        cols, inverse = np.unique(idx, return_inverse=True)
        w[cols] += np.bincount(inverse, weights=weights, minlength=cols.size)

    # ------------------------------------------------------------------ #
    # Per-sample hot path (raw-slice variants of the reference semantics)
    # ------------------------------------------------------------------ #
    def sample_update(
        self, w: np.ndarray, obj, X: CSRMatrix, i: int, y_i: float, scale: float
    ) -> int:
        lo, hi = X.indptr[i], X.indptr[i + 1]
        if lo == hi:
            return 0
        idx = X.indices[lo:hi]
        val = X.data[lo:hi]
        wi = w[idx]
        margin = float(np.dot(val, wi))
        coef = obj._loss_derivative(margin, y_i)
        values = coef * val
        if not isinstance(obj.regularizer, NoRegularizer):
            values = values + obj.regularizer.grad_coords(w, idx)
        # Canonical CSR rows have unique column indices, so the fancy-index
        # write is exactly the scatter-add without np.add.at's overhead.
        w[idx] = wi + scale * values
        return int(idx.size)

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def evaluate(self, obj, X: CSRMatrix, y: np.ndarray, w: np.ndarray) -> MetricsEval:
        n = X.n_rows
        if n == 0:
            return MetricsEval(
                rmse=float(np.sqrt(max(obj.regularizer.value(w), 0.0))), error_rate=0.0
            )
        margins = X.dot(w)
        losses = obj.batch_loss(margins, y)
        full = float(losses.mean()) + obj.regularizer.value(w)
        rmse = float(np.sqrt(max(full, 0.0)))
        return MetricsEval(rmse=rmse, error_rate=obj.error_rate_from_margins(margins, y))


__all__ = ["VectorizedKernel"]
