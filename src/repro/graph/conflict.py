"""Conflict-graph degree statistics.

Two data samples conflict when their feature supports intersect (they would
race on at least one model coordinate under lock-free updates).  A row's
degree in the conflict graph is counted exactly from a column -> rows index;
the exact average degree Δ̄ counts every row (fine up to a few thousand
samples), and an unbiased sampling estimator counts a uniform sample of
rows, which scales to the large surrogate datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.utils.rng import RandomState, as_rng


def pairwise_conflicts(X: CSRMatrix, i: int, j: int) -> bool:
    """Whether samples ``i`` and ``j`` share at least one feature."""
    idx_i, _ = X.row(i)
    idx_j, _ = X.row(j)
    if idx_i.size == 0 or idx_j.size == 0:
        return False
    # Row indices are sorted in canonical CSR layout; intersect1d handles both cases.
    return bool(np.intersect1d(idx_i, idx_j, assume_unique=False).size > 0)


def _anchor_degrees(X: CSRMatrix, anchors: np.ndarray) -> np.ndarray:
    """The exact conflict degree of each anchor row.

    For each anchor the features it touches are looked up in a column ->
    rows index (built once by a stable sort of the entries) and the other
    rows found there are counted once each.
    """
    row_of_entry = np.repeat(np.arange(X.n_rows), np.diff(X.indptr))
    order = np.argsort(X.indices, kind="stable")
    sorted_rows = row_of_entry[order]
    boundaries = np.searchsorted(X.indices[order], np.arange(X.n_cols + 1))

    degrees = np.empty(anchors.size, dtype=np.float64)
    for k, anchor in enumerate(anchors):
        idx, _ = X.row(int(anchor))
        neighbours: Set[int] = set()
        for f in idx:
            f = int(f)
            neighbours.update(sorted_rows[boundaries[f]:boundaries[f + 1]].tolist())
        neighbours.discard(int(anchor))
        degrees[k] = float(len(neighbours))
    return degrees


def average_conflict_degree(X: CSRMatrix, *, max_rows: Optional[int] = 4000) -> float:
    """Exact average degree Δ̄ of the conflict graph: the mean degree of every row.

    Guarded by ``max_rows`` because the count can take time quadratic in
    the number of rows on dense data.
    """
    if max_rows is not None and X.n_rows > max_rows:
        raise ValueError(
            f"refusing to count exact conflict degrees for {X.n_rows} rows "
            f"(limit {max_rows}); use estimate_average_degree instead"
        )
    if X.n_rows == 0:
        return 0.0
    return float(_anchor_degrees(X, np.arange(X.n_rows)).mean())


def estimate_average_degree(
    X: CSRMatrix,
    *,
    sample_size: int = 200,
    seed: RandomState = 0,
) -> float:
    """Monte-Carlo estimate of the average conflict degree Δ̄.

    The exact degree of each of ``sample_size`` uniformly chosen anchor
    rows is counted; the mean over anchors is an unbiased estimator of Δ̄.
    """
    if X.n_rows == 0:
        return 0.0
    rng = as_rng(seed)
    sample_size = min(sample_size, X.n_rows)
    anchors = rng.choice(X.n_rows, size=sample_size, replace=False)
    return float(_anchor_degrees(X, anchors).mean())


@dataclass
class ConflictGraphStats:
    """Summary of a dataset's conflict structure."""

    n_samples: int
    average_degree: float
    normalized_degree: float
    method: str

    @property
    def tau_bound_structural(self) -> float:
        """The structural part of Eq. 27's delay bound: ``n / Δ̄``."""
        if self.average_degree <= 0.0:
            return float("inf")
        return self.n_samples / self.average_degree


def conflict_graph_stats(
    X: CSRMatrix,
    *,
    exact_threshold: int = 1500,
    sample_size: int = 200,
    seed: RandomState = 0,
) -> ConflictGraphStats:
    """Compute Δ̄ exactly for small datasets and by sampling otherwise."""
    if X.n_rows <= exact_threshold:
        degree = average_conflict_degree(X, max_rows=exact_threshold)
        method = "exact"
    else:
        degree = estimate_average_degree(X, sample_size=sample_size, seed=seed)
        method = "sampled"
    normalized = degree / X.n_rows if X.n_rows else 0.0
    return ConflictGraphStats(
        n_samples=X.n_rows,
        average_degree=degree,
        normalized_degree=normalized,
        method=method,
    )


__all__ = [
    "pairwise_conflicts",
    "average_conflict_degree",
    "estimate_average_degree",
    "ConflictGraphStats",
    "conflict_graph_stats",
]
