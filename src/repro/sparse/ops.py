"""Index-compressed sparse kernels.

These free functions are the numeric core of every solver: a stochastic
gradient is represented as a pair ``(indices, values)`` and applied to the
model with :func:`scatter_add`, exactly the "index-compressed update" the
paper contrasts with SVRG's dense full-gradient add (its Figure 1).
"""

from __future__ import annotations

import numpy as np


def scatter_add(w: np.ndarray, indices: np.ndarray, values: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """In-place update ``w[indices] += scale * values`` (the Hogwild write).

    Duplicate indices are accumulated correctly via ``np.add.at``.
    Returns ``w`` to allow chaining.
    """
    if indices.size:
        np.add.at(w, indices, scale * values)
    return w


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
    "scatter_add",
    "sparse_norm_sq",
    "segment_bool_any",
]
