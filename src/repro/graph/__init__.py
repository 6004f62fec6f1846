"""Conflict-graph substrate.

Section 3.1 of the paper bounds the asynchrony error terms through two
quantities defined on the *conflict graph* of the dataset: vertices are
samples, and two samples are connected iff their feature supports overlap.
The average degree Δ̄ measures the dataset's intrinsic potential for
conflicting lock-free updates; the delay τ must satisfy
``τ = O(min{n/Δ̄, ...})`` (Eq. 27) for the noise term to stay an order-wise
constant.
"""

from repro.graph.conflict import (
    ConflictGraphStats,
    average_conflict_degree,
    conflict_graph_stats,
    estimate_average_degree,
    pairwise_conflicts,
)

__all__ = [
    "ConflictGraphStats",
    "average_conflict_degree",
    "estimate_average_degree",
    "conflict_graph_stats",
    "pairwise_conflicts",
]
