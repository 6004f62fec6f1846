"""A compact compressed-sparse-row (CSR) matrix.

The container stores three flat arrays (``data``, ``indices``, ``indptr``)
exactly as a classical CSR layout does.  It exposes only the operations the
solvers need — per-row access, row-vector inner products, row gathers and
row permutation — which keeps the hot paths free of the generality (and
overhead) of a general-purpose sparse library.

Rows are the training samples and columns are features throughout the
library; a row is therefore the index-compressed representation of one
stochastic gradient's support.

Dtype invariants
----------------
Construction normalises the storage to a fixed ABI: ``data`` is ``float64``
and ``indices``/``indptr`` are ``int32`` (the native C kernel backend reads
the arrays through raw pointers, so the layout cannot depend on what numpy
happened to infer).  Both ``n_cols`` and ``nnz`` must therefore fit in a
signed 32-bit integer; out-of-range inputs are rejected at construction.
Arrays that already satisfy the invariants are passed through without a
copy (the process-cluster workers rely on this to keep their shared-memory
views zero-copy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_index_array


@dataclass
class CSRMatrix:
    """Immutable CSR matrix of shape ``(n_rows, n_cols)``.

    Parameters
    ----------
    data:
        Non-zero values, concatenated row by row (normalised to ``float64``).
    indices:
        Column index of each value in ``data`` (normalised to ``int32``).
    indptr:
        Row pointer array of length ``n_rows + 1``; row ``i`` occupies the
        slice ``data[indptr[i]:indptr[i + 1]]`` (normalised to ``int32``).
    n_cols:
        Number of columns (the feature dimensionality ``d``); must fit in a
        signed 32-bit integer, as must ``nnz``.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    n_cols: int

    #: The fixed storage dtype of ``indices``/``indptr`` (the C ABI of the
    #: native kernel backend reads the arrays through ``int32_t`` pointers).
    INDEX_DTYPE = np.int32

    @staticmethod
    def _as_index_array(arr: np.ndarray, name: str) -> np.ndarray:
        """Normalise an index array to contiguous :attr:`INDEX_DTYPE`.

        Arrays already in the canonical dtype pass through without a copy;
        anything else is range-checked against the int32 domain before the
        narrowing cast so out-of-range values fail loudly instead of
        wrapping.
        """
        arr = np.ascontiguousarray(arr)
        if arr.dtype == CSRMatrix.INDEX_DTYPE:
            return arr
        arr = arr.astype(np.int64, copy=False)
        if arr.size and (
            arr.min() < np.iinfo(np.int32).min or arr.max() > np.iinfo(np.int32).max
        ):
            raise ValueError(f"{name} values exceed the int32 storage range")
        return np.ascontiguousarray(arr, dtype=CSRMatrix.INDEX_DTYPE)

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.n_cols is not None and int(self.n_cols) > np.iinfo(np.int32).max:
            raise ValueError("n_cols exceeds the int32 storage range")
        if self.data.size > np.iinfo(np.int32).max:
            raise ValueError("nnz exceeds the int32 storage range")
        self.indices = self._as_index_array(self.indices, "indices")
        self.indptr = self._as_index_array(self.indptr, "indptr")
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise ValueError("indptr must be a 1-D array with at least one entry")
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if self.indptr[-1] != self.data.size:
            raise ValueError(
                f"indptr[-1] ({int(self.indptr[-1])}) must equal nnz ({self.data.size})"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.data.shape != self.indices.shape:
            raise ValueError("data and indices must have identical shapes")
        if self.n_cols < 0:
            raise ValueError("n_cols must be non-negative")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.n_cols):
            raise ValueError("column indices out of bounds")
        # Canonical layout: column indices strictly increasing within each
        # row (sorted, duplicate-free).  The vectorized kernel backend's
        # fancy-index writes rely on row supports being duplicate-free, so
        # this is validated here rather than assumed.
        if self.indices.size > 1:
            non_increasing = np.diff(self.indices) <= 0
            row_boundary = np.zeros(self.indices.size - 1, dtype=bool)
            starts = self.indptr[1:-1]
            starts = starts[(starts > 0) & (starts < self.indices.size)]
            row_boundary[starts - 1] = True
            if np.any(non_increasing & ~row_boundary):
                raise ValueError(
                    "column indices must be strictly increasing within each row "
                    "(canonical CSR); sort and merge duplicates first"
                )

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Number of rows (training samples)."""
        return int(self.indptr.size - 1)

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        """Total number of stored non-zeros."""
        return int(self.data.size)

    @property
    def density(self) -> float:
        """Fraction of stored entries over the dense size (0 when empty)."""
        total = self.n_rows * self.n_cols
        return float(self.nnz) / total if total else 0.0

    def row_nnz(self, i: int | None = None) -> np.ndarray | int:
        """Number of non-zeros of row ``i``, or the per-row nnz vector when ``i`` is None."""
        if i is None:
            return np.diff(self.indptr)
        self._check_row(i)
        return int(self.indptr[i + 1] - self.indptr[i])

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #
    def _check_row(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row index {i} out of range for {self.n_rows} rows")
        return i

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(column_indices, values)`` views of row ``i`` (no copy)."""
        i = self._check_row(i)
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_dot(self, i: int, w: np.ndarray) -> float:
        """Inner product ``<x_i, w>`` using only the non-zero coordinates."""
        idx, val = self.row(i)
        if idx.size == 0:
            return 0.0
        return float(np.dot(val, w[idx]))

    def row_norms(self, squared: bool = False) -> np.ndarray:
        """Per-row Euclidean norms ``||x_i||_2`` (or squared norms)."""
        sq = self._row_sums(self.data * self.data)
        return sq if squared else np.sqrt(sq)

    def _row_sums(self, per_entry: np.ndarray) -> np.ndarray:
        """Sum ``per_entry`` (aligned with ``data``) within each row.

        Uses ``np.add.reduceat`` on a sentinel-padded array: the padding makes
        a start index equal to ``nnz`` (trailing empty rows) valid, and rows
        of zero length are masked out afterwards.  Unlike a prefix-sum
        difference this keeps full precision for tiny rows that follow rows
        with large values.
        """
        if self.nnz == 0:
            return np.zeros(self.n_rows, dtype=np.float64)
        padded = np.concatenate([np.asarray(per_entry, dtype=np.float64), [0.0]])
        sums = np.add.reduceat(padded, self.indptr[:-1])
        lengths = np.diff(self.indptr)
        return np.asarray(np.where(lengths > 0, sums, 0.0), dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Whole-matrix operations
    # ------------------------------------------------------------------ #
    def dot(self, w: np.ndarray) -> np.ndarray:
        """Matrix-vector product ``X @ w`` returned as a dense vector."""
        w = np.ascontiguousarray(w, dtype=np.float64)
        if w.shape != (self.n_cols,):
            raise ValueError(f"w must have shape ({self.n_cols},), got {w.shape}")
        if self.nnz == 0:
            return np.zeros(self.n_rows, dtype=np.float64)
        return self._row_sums(self.data * w[self.indices])

    def transpose_dot(self, v: np.ndarray) -> np.ndarray:
        """Product ``X.T @ v`` returned as a dense vector of length ``n_cols``."""
        v = np.ascontiguousarray(v, dtype=np.float64)
        if v.shape != (self.n_rows,):
            raise ValueError(f"v must have shape ({self.n_rows},), got {v.shape}")
        out = np.zeros(self.n_cols, dtype=np.float64)
        if self.nnz == 0:
            return out
        row_of_entry = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        np.add.at(out, self.indices, self.data * v[row_of_entry])
        return out

    def gather_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated ``(indices, values, lengths)`` of the selected rows.

        ``rows`` may repeat and is visited in order; the returned ``lengths``
        vector gives each selected row's nnz (``int64``, so cumulative sums
        over huge selections cannot overflow the int32 storage dtype) so
        callers can segment the flat arrays (``np.repeat`` /
        ``np.add.reduceat`` style).  This is the gather primitive behind the
        vectorized kernel backend's batched margins and scatter-adds.
        """
        rows = check_index_array(np.asarray(rows, dtype=np.int64), "rows", upper=self.n_rows)
        starts = self.indptr[rows].astype(np.int64)
        lengths = self.indptr[rows + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            return (
                np.zeros(0, dtype=self.INDEX_DTYPE),
                np.zeros(0, dtype=np.float64),
                lengths,
            )
        offsets = np.cumsum(lengths) - lengths
        pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets, lengths)
            + np.repeat(starts, lengths)
        )
        return self.indices[pos], self.data[pos], lengths

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense ``(n_rows, n_cols)`` array."""
        out = np.zeros(self.shape, dtype=np.float64)
        for i in range(self.n_rows):
            idx, val = self.row(i)
            out[i, idx] = val
        return out

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Tuple[Sequence[int], Sequence[float]]],
        n_cols: int,
    ) -> "CSRMatrix":
        """Build a matrix from ``(indices, values)`` pairs, one per row.

        Column indices within each row are sorted and duplicate columns are
        summed so that the resulting layout is canonical
        (:func:`canonical_rows`).
        """
        data, indices, indptr = canonical_rows(rows)
        return cls(data=data, indices=indices, indptr=indptr, n_cols=n_cols)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build a CSR matrix from a dense 2-D array (zeros are dropped)."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {dense.shape}")
        rows = []
        for i in range(dense.shape[0]):
            idx = np.nonzero(dense[i])[0]
            rows.append((idx, dense[i, idx]))
        return cls.from_rows(rows, n_cols=dense.shape[1])

    # ------------------------------------------------------------------ #
    # Row selection
    # ------------------------------------------------------------------ #
    def take_rows(self, order: Iterable[int]) -> "CSRMatrix":
        """Return a new matrix whose rows are ``self`` rows re-ordered by ``order``.

        ``order`` may select a subset of rows and may repeat rows; this is the
        primitive that importance balancing and worker partitioning use.
        """
        order = check_index_array(np.asarray(list(order)), "order", upper=self.n_rows)
        lengths = np.diff(self.indptr)[order]
        new_indptr = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=new_indptr[1:])
        new_data = np.empty(int(new_indptr[-1]), dtype=np.float64)
        new_indices = np.empty(int(new_indptr[-1]), dtype=self.INDEX_DTYPE)
        for new_r, old_r in enumerate(order):
            lo, hi = self.indptr[old_r], self.indptr[old_r + 1]
            nlo, nhi = new_indptr[new_r], new_indptr[new_r + 1]
            new_data[nlo:nhi] = self.data[lo:hi]
            new_indices[nlo:nhi] = self.indices[lo:hi]
        return CSRMatrix(data=new_data, indices=new_indices, indptr=new_indptr, n_cols=self.n_cols)

    def slice_rows(self, start: int, stop: int) -> "CSRMatrix":
        """Return the contiguous row slice ``[start, stop)`` as a new matrix."""
        start, stop = int(start), int(stop)
        if not (0 <= start <= stop <= self.n_rows):
            raise IndexError(f"invalid row slice [{start}, {stop}) for {self.n_rows} rows")
        lo, hi = self.indptr[start], self.indptr[stop]
        return CSRMatrix(
            data=self.data[lo:hi].copy(),
            indices=self.indices[lo:hi].copy(),
            indptr=(self.indptr[start : stop + 1] - lo).copy(),
            n_cols=self.n_cols,
        )

    def __getitem__(self, key):
        """Row indexing: an int returns ``(indices, values)``, a slice/array a new matrix."""
        if isinstance(key, (int, np.integer)):
            return self.row(int(key))
        if isinstance(key, slice):
            start, stop, step = key.indices(self.n_rows)
            if step == 1:
                return self.slice_rows(start, stop)
            return self.take_rows(range(start, stop, step))
        return self.take_rows(np.asarray(key))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.data, other.data)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.2e})"
        )


def canonical_rows(
    rows: Sequence[Tuple[Sequence[int], Sequence[float]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(data, indices, indptr)`` of ``(indices, values)`` rows in canonical order.

    Column indices within each row are sorted, duplicate columns summed and
    zero values dropped.  Nothing is range-checked: :class:`CSRMatrix`
    does that when the arrays become a matrix.
    """
    data_parts: List[np.ndarray] = []
    index_parts: List[np.ndarray] = []
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    for r, (idx, val) in enumerate(rows):
        idx = np.asarray(idx, dtype=np.int64)
        val = np.asarray(val, dtype=np.float64)
        if idx.shape != val.shape:
            raise ValueError(f"row {r}: indices and values must have matching shapes")
        if idx.size:
            order = np.argsort(idx, kind="stable")
            idx, val = idx[order], val[order]
            # merge duplicates
            uniq, start = np.unique(idx, return_index=True)
            if uniq.size != idx.size:
                summed = np.add.reduceat(val, start)
                idx, val = uniq, summed
            keep = val != 0.0
            idx, val = idx[keep], val[keep]
        index_parts.append(idx)
        data_parts.append(val)
        indptr[r + 1] = indptr[r] + idx.size
    data = np.concatenate(data_parts) if data_parts else np.zeros(0)
    indices = np.concatenate(index_parts) if index_parts else np.zeros(0, dtype=np.int64)
    return data, indices, indptr


__all__ = ["CSRMatrix", "canonical_rows"]
