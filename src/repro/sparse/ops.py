"""Index-compressed sparse kernels."""

from __future__ import annotations

import numpy as np


def sparse_norm_sq(values: np.ndarray) -> float:
    """Squared Euclidean norm of a sparse vector's stored values."""
    if values.size == 0:
        return 0.0
    return float(np.dot(values, values))


def segment_bool_any(mask: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-segment ``any`` over a flat per-entry boolean array.

    ``mask`` holds one boolean per gathered entry and ``lengths`` the
    segment (row) sizes, as produced by ``CSRMatrix.gather_rows``; segment
    ``t`` is True when any of its entries is.  Shared by the batched
    simulator's conflict replay and the cluster worker's measured conflict
    detection.
    """
    if mask.size == 0:
        return np.zeros(lengths.size, dtype=bool)
    starts = np.cumsum(lengths) - lengths
    padded = np.concatenate([mask.astype(np.int64), [0]])
    return (lengths > 0) & (np.add.reduceat(padded, starts) > 0)


__all__ = [
    "sparse_norm_sq",
    "segment_bool_any",
]
