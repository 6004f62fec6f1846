"""Native kernel backend: C implementations of the hot-path primitives.

:class:`NativeKernel` subclasses :class:`~repro.kernels.vectorized.VectorizedKernel`
and replaces the CSR linear algebra, the gathered-row batch primitives and —
above all — the per-sample hot path with compiled C loops
(:mod:`repro.kernels.native.source`).  The fused block primitives
``run_sample_block`` / ``run_frozen_block`` / ``run_shared_block`` execute
an entire schedule block per C call, eliminating the per-step interpreter
overhead that dominates the per-sample tier.

Dispatch is by exact objective/regulariser type: the four built-in losses
(logistic, hinge, squared hinge, least squares) combined with the built-in
separable regularisers map onto compiled scalar callbacks; any other
objective (including subclasses, whose overridden ``_loss_derivative`` the C
code cannot see) transparently falls through to the inherited vectorized
implementation, so custom objectives keep working unchanged.

The backend relies on the :class:`~repro.sparse.csr.CSRMatrix` dtype
invariants (float64 data, int32 indices/indptr, C-contiguous) — buffers are
passed to C zero-copy via ``ffi.from_buffer``.  The C loops do no bounds
checks, so every entry point first rejects what the pure-Python backends
reject: a ``w`` of the wrong shape, row or column indices out of range,
segment lengths that do not tile the gathered arrays, and per-row or
per-step arrays of the wrong size.  The checks are a few O(len) reductions
per call.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.base import MetricsEval, check_segments
from repro.kernels.native import builder
from repro.kernels.native.source import OBJECTIVE_IDS
from repro.kernels.vectorized import VectorizedKernel
from repro.objectives.hinge import HingeObjective
from repro.objectives.least_squares import LeastSquaresObjective
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import (
    ElasticNetRegularizer,
    L1Regularizer,
    L2Regularizer,
    NoRegularizer,
)
from repro.objectives.squared_hinge import SquaredHingeObjective
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import check_index_array

#: C element types of the buffers :meth:`NativeKernel._live` hands over.
_CTYPES = {"float64": "double[]", "int64": "int64_t[]", "int32": "int32_t[]"}

_OBJECTIVE_TYPES = {
    LogisticObjective: OBJECTIVE_IDS["logistic"],
    HingeObjective: OBJECTIVE_IDS["hinge"],
    SquaredHingeObjective: OBJECTIVE_IDS["squared_hinge"],
    LeastSquaresObjective: OBJECTIVE_IDS["least_squares"],
}


def _check_w(X: CSRMatrix, w) -> None:
    if np.shape(w) != (X.n_cols,):
        raise ValueError(f"w must have shape ({X.n_cols},), got {np.shape(w)}")


def _check_bounds(idx: np.ndarray, upper: int) -> None:
    """Column indices must address ``w``, which has ``upper`` entries."""
    if idx.size and (idx.min() < 0 or idx.max() >= upper):
        raise IndexError(f"idx contains indices outside [0, {upper})")


def _check_size(arr: np.ndarray, size: int, name: str) -> None:
    if arr.size != size:
        raise ValueError(f"{name} must have {size} entries, got {arr.size}")


def _check_range_bounds(bounds: np.ndarray, n_ranges: int, dim: int) -> None:
    """``bounds`` must cut ``[0, dim)`` into ``n_ranges`` consecutive ranges."""
    _check_size(bounds, n_ranges + 1, "range_bounds")
    if bounds[0] != 0 or bounds[-1] != dim or np.any(bounds[1:] < bounds[:-1]):
        raise ValueError(f"range_bounds must rise from 0 to {dim}")


class NativeKernel(VectorizedKernel):
    """cffi-compiled C kernels with fused per-sample and frozen-block loops."""

    name = "native"
    fused_sample_block = True

    def __init__(self) -> None:
        # Raises NativeBuildError when no compiler/cached build is available;
        # the registry factory catches it and falls back to vectorized.
        self._ffi, self._lib = builder.load_native_lib()

    # ------------------------------------------------------------------ #
    # Dispatch plumbing
    # ------------------------------------------------------------------ #
    def _dispatch(self, obj) -> Optional[Tuple[int, int, float, float]]:
        """``(obj_id, has_reg, r1, r2)`` for natively supported objectives.

        Exact type matches only: a subclass may override the scalar loss or
        regulariser math, which the compiled callbacks cannot reflect.
        """
        obj_id = _OBJECTIVE_TYPES.get(type(obj))
        if obj_id is None:
            return None
        reg = obj.regularizer
        reg_type = type(reg)
        if reg_type is NoRegularizer:
            return obj_id, 0, 0.0, 0.0
        if reg_type is L1Regularizer:
            return obj_id, 1, reg.eta, 0.0
        if reg_type is L2Regularizer:
            return obj_id, 1, 0.0, reg.eta
        if reg_type is ElasticNetRegularizer:
            return obj_id, 1, reg.eta_l1, reg.eta_l2
        return None

    def supports_objective(self, obj) -> bool:
        return self._dispatch(obj) is not None

    # -- zero-copy buffer views (arrays must outlive the C call) -------- #
    def _f64(self, arr: np.ndarray):
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        return arr, self._ffi.from_buffer("double[]", arr)

    def _i32(self, arr: np.ndarray):
        arr = np.ascontiguousarray(arr, dtype=np.int32)
        return arr, self._ffi.from_buffer("int32_t[]", arr)

    def _i64(self, arr: np.ndarray):
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        return arr, self._ffi.from_buffer("int64_t[]", arr)

    def _live(self, arr, dtype: str, name: str):
        """Pointer into a buffer other processes share.  A copy would miss
        their writes or lose ours, so anything but a writable C-contiguous
        array of ``dtype`` is rejected."""
        if not (
            isinstance(arr, np.ndarray) and arr.dtype == dtype
            and arr.flags.c_contiguous and arr.flags.writeable
        ):
            raise ValueError(f"{name} must be a writable C-contiguous {dtype} array")
        return self._ffi.from_buffer(_CTYPES[dtype], arr)

    def _wptr(self, w: np.ndarray):
        """Writable pointer to the iterate, or None when a zero-copy view
        is impossible (non-contiguous / non-float64 w must not be silently
        copied — updates would be lost)."""
        if w.dtype == np.float64 and w.flags.c_contiguous:
            return self._ffi.from_buffer("double[]", w)
        return None

    # ------------------------------------------------------------------ #
    # CSR linear algebra
    # ------------------------------------------------------------------ #
    def matvec(self, X: CSRMatrix, w: np.ndarray) -> np.ndarray:
        _check_w(X, w)
        n = X.n_rows
        out = np.empty(n, dtype=np.float64)
        if n == 0:
            return out
        w_arr, w_ptr = self._f64(w)
        _, indptr = self._i32(X.indptr)
        _, indices = self._i32(X.indices)
        _, data = self._f64(X.data)
        self._lib.repro_matvec(
            n, indptr, indices, data, w_ptr, self._ffi.from_buffer("double[]", out)
        )
        return out

    def margins(
        self, X: CSRMatrix, w: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if rows is None:
            return self.matvec(X, w)
        _check_w(X, w)
        rows_arr = check_index_array(rows, "rows", upper=X.n_rows)
        out = np.empty(rows_arr.size, dtype=np.float64)
        if rows_arr.size == 0:
            return out
        rows_ptr = self._ffi.from_buffer("int64_t[]", rows_arr)
        w_arr, w_ptr = self._f64(w)
        _, indptr = self._i32(X.indptr)
        _, indices = self._i32(X.indices)
        _, data = self._f64(X.data)
        self._lib.repro_margins_rows(
            rows_arr.size, rows_ptr, indptr, indices, data, w_ptr,
            self._ffi.from_buffer("double[]", out),
        )
        return out

    # ------------------------------------------------------------------ #
    # Gathered-row batch primitives
    # ------------------------------------------------------------------ #
    def segment_margins(
        self, idx: np.ndarray, val: np.ndarray, lengths: np.ndarray, w: np.ndarray
    ) -> np.ndarray:
        lengths_arr, lengths_ptr = self._i64(lengths)
        idx_arr, idx_ptr = self._i32(idx)
        val_arr, val_ptr = self._f64(val)
        w_arr, w_ptr = self._f64(w)
        check_segments(idx_arr, val_arr, lengths_arr)
        _check_bounds(idx_arr, w_arr.size)
        out = np.empty(lengths_arr.size, dtype=np.float64)
        if lengths_arr.size == 0:
            return out
        self._lib.repro_segment_margins(
            lengths_arr.size, lengths_ptr, idx_ptr, val_ptr, w_ptr,
            self._ffi.from_buffer("double[]", out),
        )
        return out

    def scatter_add(self, w: np.ndarray, idx: np.ndarray, weights: np.ndarray) -> None:
        idx_arr, idx_ptr = self._i32(idx)
        weights_arr, weights_ptr = self._f64(weights)
        _check_size(weights_arr, idx_arr.size, "weights")
        _check_bounds(idx_arr, w.size)
        if idx_arr.size == 0:
            return
        w_ptr = self._wptr(w)
        if w_ptr is None:
            super().scatter_add(w, idx_arr, weights_arr)
            return
        self._lib.repro_scatter_add(idx_arr.size, idx_ptr, weights_ptr, w_ptr)

    # ------------------------------------------------------------------ #
    # Per-sample hot path
    # ------------------------------------------------------------------ #
    def sample_update(
        self, w: np.ndarray, obj, X: CSRMatrix, i: int, y_i: float, scale: float
    ) -> int:
        _check_w(X, w)
        check_index_array(i, "i", upper=X.n_rows)
        disp = self._dispatch(obj)
        w_ptr = self._wptr(w) if disp is not None else None
        if disp is None or w_ptr is None:
            return super().sample_update(w, obj, X, i, y_i, scale)
        obj_id, has_reg, r1, r2 = disp
        _, indptr = self._i32(X.indptr)
        _, indices = self._i32(X.indices)
        _, data = self._f64(X.data)
        return int(
            self._lib.repro_sample_update(
                obj_id, has_reg, r1, r2, indptr, indices, data,
                int(i), float(y_i), float(scale), w_ptr,
            )
        )

    def run_sample_block(
        self,
        w: np.ndarray,
        obj,
        X: CSRMatrix,
        y: np.ndarray,
        rows: np.ndarray,
        scales: np.ndarray,
    ) -> int:
        _check_w(X, w)
        rows_arr = check_index_array(rows, "rows", upper=X.n_rows)
        y_arr, y_ptr = self._f64(y)
        scales_arr, scales_ptr = self._f64(scales)
        _check_size(y_arr, X.n_rows, "y")
        _check_size(scales_arr, rows_arr.size, "scales")
        disp = self._dispatch(obj)
        w_ptr = self._wptr(w) if disp is not None else None
        if disp is None or w_ptr is None:
            return super().run_sample_block(w, obj, X, y_arr, rows_arr, scales_arr)
        if rows_arr.size == 0:
            return 0
        rows_ptr = self._ffi.from_buffer("int64_t[]", rows_arr)
        obj_id, has_reg, r1, r2 = disp
        _, indptr = self._i32(X.indptr)
        _, indices = self._i32(X.indices)
        _, data = self._f64(X.data)
        return int(
            self._lib.repro_run_sample_block(
                obj_id, has_reg, r1, r2, indptr, indices, data, y_ptr,
                rows_arr.size, rows_ptr, scales_ptr, w_ptr,
            )
        )

    def run_frozen_block(
        self,
        w: np.ndarray,
        obj,
        idx: np.ndarray,
        val: np.ndarray,
        lengths: np.ndarray,
        y_rows: np.ndarray,
        scales: np.ndarray,
    ) -> int:
        disp = self._dispatch(obj)
        w_ptr = self._wptr(w) if disp is not None else None
        if disp is None or w_ptr is None:
            # The engines gate on supports_objective(); reaching here means a
            # direct caller asked for an unsupported combination.
            return super().run_frozen_block(w, obj, idx, val, lengths, y_rows, scales)
        lengths_arr, lengths_ptr = self._i64(lengths)
        idx_arr, idx_ptr = self._i32(idx)
        val_arr, val_ptr = self._f64(val)
        y_arr, y_ptr = self._f64(y_rows)
        scales_arr, scales_ptr = self._f64(scales)
        check_segments(idx_arr, val_arr, lengths_arr)
        _check_bounds(idx_arr, w.size)
        _check_size(y_arr, lengths_arr.size, "y_rows")
        _check_size(scales_arr, lengths_arr.size, "scales")
        if lengths_arr.size == 0:
            return 0
        obj_id, has_reg, r1, r2 = disp
        margins_buf = np.empty(lengths_arr.size, dtype=np.float64)
        entry_buf = np.empty(idx_arr.size, dtype=np.float64)
        return int(
            self._lib.repro_run_frozen_block(
                obj_id, has_reg, r1, r2, lengths_arr.size, lengths_ptr,
                idx_ptr, val_ptr, y_ptr, scales_ptr,
                self._ffi.from_buffer("double[]", margins_buf),
                self._ffi.from_buffer("double[]", entry_buf),
                w_ptr,
            )
        )

    def run_shared_block(
        self,
        w: np.ndarray,
        obj,
        X: CSRMatrix,
        y: np.ndarray,
        rows: np.ndarray,
        scales: np.ndarray,
        *,
        worker_id: int,
        t_read: int,
        progress: np.ndarray,
        last_writer: np.ndarray,
        write_clock: np.ndarray,
        range_bounds: np.ndarray,
        range_writes: np.ndarray,
    ) -> Tuple[int, int, int]:
        disp = self._dispatch(obj)
        if disp is None:
            # The worker gates on supports_objective(); reaching here means a
            # direct caller asked for an unsupported objective.
            raise NotImplementedError(
                f"the native shared block cannot dispatch {type(obj).__name__}"
            )
        w_ptr = self._live(w, "float64", "w")
        progress_ptr = self._live(progress, "int64", "progress")
        last_writer_ptr = self._live(last_writer, "int32", "last_writer")
        write_clock_ptr = self._live(write_clock, "int64", "write_clock")
        range_writes_ptr = self._live(range_writes, "int64", "range_writes")
        _check_w(X, w)
        rows_arr = check_index_array(rows, "rows", upper=X.n_rows)
        y_arr, y_ptr = self._f64(y)
        scales_arr, scales_ptr = self._f64(scales)
        bounds_arr, bounds_ptr = self._i64(range_bounds)
        _check_size(y_arr, X.n_rows, "y")
        _check_size(scales_arr, rows_arr.size, "scales")
        _check_size(last_writer, X.n_cols, "last_writer")
        _check_size(write_clock, X.n_cols, "write_clock")
        _check_range_bounds(bounds_arr, range_writes.size, X.n_cols)
        nnz = int((X.indptr[rows_arr + 1] - X.indptr[rows_arr]).sum())
        margins_buf = np.empty(rows_arr.size, dtype=np.float64)
        table_bits = max(2 * nnz - 1, 1).bit_length()     # 2**bits >= 2 nnz
        table = np.full(1 << table_bits, -1, dtype=np.int32)
        uniq = np.empty(nnz, dtype=np.int32)
        sums = np.empty(nnz, dtype=np.float64)
        tally = np.zeros(range_writes.size, dtype=np.int64)
        out = np.zeros(3, dtype=np.int64)
        obj_id, has_reg, r1, r2 = disp
        _, indptr = self._i32(X.indptr)
        _, indices = self._i32(X.indices)
        _, data = self._f64(X.data)
        ffi = self._ffi
        self._lib.repro_run_shared_block(
            obj_id, has_reg, r1, r2, indptr, indices, data, y_ptr,
            rows_arr.size, ffi.from_buffer("int64_t[]", rows_arr), scales_ptr,
            ffi.from_buffer("double[]", margins_buf), ffi.from_buffer("int32_t[]", table),
            table_bits, ffi.from_buffer("int32_t[]", uniq), ffi.from_buffer("double[]", sums),
            w_ptr, int(worker_id), int(t_read), progress.size, progress_ptr,
            last_writer_ptr, write_clock_ptr, bounds_arr.size - 1, bounds_ptr,
            ffi.from_buffer("int64_t[]", tally), range_writes_ptr,
            ffi.from_buffer("int64_t[]", out),
        )
        return int(out[0]), int(out[1]), int(out[2])

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def _native_losses(self, disp, margins: np.ndarray, y_sel: np.ndarray) -> np.ndarray:
        out = np.empty(margins.size, dtype=np.float64)
        if margins.size:
            margins_arr, margins_ptr = self._f64(margins)
            y_arr, y_ptr = self._f64(y_sel)
            self._lib.repro_losses(
                disp[0], margins_arr.size, margins_ptr, y_ptr,
                self._ffi.from_buffer("double[]", out),
            )
        return out

    def evaluate(self, obj, X: CSRMatrix, y: np.ndarray, w: np.ndarray) -> MetricsEval:
        _check_w(X, w)
        _check_size(np.asarray(y), X.n_rows, "y")
        disp = self._dispatch(obj)
        if disp is None:
            return super().evaluate(obj, X, y, w)
        n = X.n_rows
        if n == 0:
            return MetricsEval(
                rmse=float(np.sqrt(max(obj.regularizer.value(w), 0.0))), error_rate=0.0
            )
        margins = self.matvec(X, w)
        losses = self._native_losses(disp, margins, y)
        full = float(losses.mean()) + obj.regularizer.value(w)
        rmse = float(np.sqrt(max(full, 0.0)))
        return MetricsEval(rmse=rmse, error_rate=obj.error_rate_from_margins(margins, y))


__all__ = ["NativeKernel"]
