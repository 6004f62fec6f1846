"""Reference kernel backend: per-sample Python loops, kept as ground truth.

Every primitive is implemented exactly the way the original solvers did it —
``X.row(i)`` → scalar margin → scalar loss derivative → ``np.add.at`` — so
the backend defines the semantics the ``vectorized`` backend must reproduce.
It is deliberately slow; use it for parity testing and debugging only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.base import KernelBackend, MetricsEval
from repro.sparse.csr import CSRMatrix


class ReferenceKernel(KernelBackend):
    """Per-sample loop implementations of every kernel primitive."""

    name = "reference"

    # ------------------------------------------------------------------ #
    # CSR linear algebra
    # ------------------------------------------------------------------ #
    def matvec(self, X: CSRMatrix, w: np.ndarray) -> np.ndarray:
        out = np.zeros(X.n_rows, dtype=np.float64)
        for i in range(X.n_rows):
            out[i] = X.row_dot(i, w)
        return out

    def margins(
        self, X: CSRMatrix, w: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if rows is None:
            return self.matvec(X, w)
        rows = np.asarray(rows, dtype=np.int64)
        out = np.zeros(rows.size, dtype=np.float64)
        for t, i in enumerate(rows):
            out[t] = X.row_dot(int(i), w)
        return out

    # segment_margins: the KernelBackend default *is* the reference loop.

    def scatter_add(self, w: np.ndarray, idx: np.ndarray, weights: np.ndarray) -> None:
        for k in range(idx.size):
            w[int(idx[k])] += float(weights[k])

    # ------------------------------------------------------------------ #
    # Per-sample hot path
    # ------------------------------------------------------------------ #
    def sample_update(
        self, w: np.ndarray, obj, X: CSRMatrix, i: int, y_i: float, scale: float
    ) -> int:
        x_idx, x_val = X.row(i)
        grad = obj.sample_grad(w, x_idx, x_val, y_i)
        if grad.indices.size:
            np.add.at(w, grad.indices, scale * grad.values)
        return int(x_idx.size)

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def evaluate(self, obj, X: CSRMatrix, y: np.ndarray, w: np.ndarray) -> MetricsEval:
        n = X.n_rows
        loss_sum = 0.0
        errors = 0.0
        sq_err_sum = 0.0
        for i in range(n):
            x_idx, x_val = X.row(i)
            y_i = float(y[i])
            loss_sum += obj.sample_loss(w, x_idx, x_val, y_i)
            margin = X.row_dot(i, w)
            if obj.is_classification:
                pred = np.sign(margin) or 1.0
                errors += float(pred != np.sign(y_i))
            else:
                sq_err_sum += (margin - y_i) ** 2
        mean_loss = loss_sum / n if n else 0.0
        rmse = float(np.sqrt(max(mean_loss + obj.regularizer.value(w), 0.0)))
        if not n:
            error_rate = 0.0
        elif obj.is_classification:
            error_rate = errors / n
        else:
            error_rate = (sq_err_sum / n) / (float(np.mean(y**2)) or 1.0)
        return MetricsEval(rmse=rmse, error_rate=float(error_rate))


__all__ = ["ReferenceKernel"]
