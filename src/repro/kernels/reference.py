"""Reference kernel backend: per-sample Python loops, kept as ground truth.

Every primitive is implemented exactly the way the original solvers did it —
``X.row(i)`` → scalar margin → scalar loss derivative → ``np.add.at`` — so
the backend defines the semantics the ``vectorized`` backend must reproduce.
It is deliberately slow; use it for parity testing and debugging only.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.base import KernelBackend, MetricsEval
from repro.objectives.regularizers import NoRegularizer
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

    def rmatvec(self, X: CSRMatrix, v: np.ndarray) -> np.ndarray:
        out = np.zeros(X.n_cols, dtype=np.float64)
        for i in range(X.n_rows):
            idx, val = X.row(i)
            if idx.size:
                np.add.at(out, idx, val * float(v[i]))
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

    def batch_grad(
        self,
        obj,
        X: CSRMatrix,
        rows: np.ndarray,
        w: np.ndarray,
        y: np.ndarray,
        scales: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        accum: dict[int, float] = {}
        for t, i in enumerate(np.asarray(rows, dtype=np.int64)):
            i = int(i)
            x_idx, x_val = X.row(i)
            grad = obj.sample_grad(w, x_idx, x_val, float(y[i]))
            scale = float(scales[t])
            for col, val in zip(grad.indices, grad.values):
                accum[int(col)] = accum.get(int(col), 0.0) + scale * float(val)
        cols = np.fromiter(accum.keys(), dtype=np.int64, count=len(accum))
        vals = np.fromiter(accum.values(), dtype=np.float64, count=len(accum))
        return cols, vals

    # ------------------------------------------------------------------ #
    # Per-sample hot path
    # ------------------------------------------------------------------ #
    def row_update(
        self, w: np.ndarray, X: CSRMatrix, i: int, values: np.ndarray, scale: float = 1.0
    ) -> None:
        idx, _ = X.row(i)
        if idx.size:
            np.add.at(w, idx, scale * values)

    def sample_grad(
        self, obj, X: CSRMatrix, i: int, w: np.ndarray, y_i: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        x_idx, x_val = X.row(i)
        grad = obj.sample_grad(w, x_idx, x_val, y_i)
        return grad.indices, grad.values

    def sample_update(
        self, w: np.ndarray, obj, X: CSRMatrix, i: int, y_i: float, scale: float
    ) -> int:
        x_idx, x_val = X.row(i)
        grad = obj.sample_grad(w, x_idx, x_val, y_i)
        if grad.indices.size:
            np.add.at(w, grad.indices, scale * grad.values)
        return int(x_idx.size)

    # ------------------------------------------------------------------ #
    # Batched objective math (scalar loops over the sample index)
    # ------------------------------------------------------------------ #
    def losses(
        self,
        obj,
        X: CSRMatrix,
        y: np.ndarray,
        w: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        rows = np.arange(X.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
        out = np.zeros(rows.size, dtype=np.float64)
        for t, i in enumerate(rows):
            x_idx, x_val = X.row(int(i))
            out[t] = obj.sample_loss(w, x_idx, x_val, float(y[int(i)]))
        return out

    # ------------------------------------------------------------------ #
    # Full-dataset quantities
    # ------------------------------------------------------------------ #
    def full_gradient(self, obj, X: CSRMatrix, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        n = max(X.n_rows, 1)
        grad = np.zeros(X.n_cols, dtype=np.float64)
        for i in range(X.n_rows):
            idx, val = X.row(i)
            if idx.size:
                margin = X.row_dot(i, w)
                coef = obj._loss_derivative(margin, float(y[i]))
                np.add.at(grad, idx, coef * val / n)
        if not isinstance(obj.regularizer, NoRegularizer):
            grad += obj.regularizer.grad_dense(w)
        return grad

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
        if obj.is_classification:
            error_rate = errors / n if n else 0.0
        else:
            denom = float(np.mean(y**2)) or 1.0
            error_rate = (sq_err_sum / n) / denom if n else 0.0
        return MetricsEval(rmse=rmse, error_rate=float(error_rate))


__all__ = ["ReferenceKernel"]
