"""Tests for the conflict-graph substrate."""

import numpy as np
import pytest

from repro.graph.conflict import (
    average_conflict_degree,
    conflict_graph_stats,
    estimate_average_degree,
    pairwise_conflicts,
)
from repro.sparse.csr import CSRMatrix


@pytest.fixture()
def toy_matrix():
    # Rows: 0 and 1 share feature 0; 2 is isolated; 3 shares feature 2 with 1.
    dense = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [2.0, 0.0, 3.0, 0.0],
            [0.0, 0.0, 0.0, 4.0],
            [0.0, 0.0, 5.0, 0.0],
        ]
    )
    return CSRMatrix.from_dense(dense)


class TestPairwiseConflicts:
    def test_share_feature(self, toy_matrix):
        assert pairwise_conflicts(toy_matrix, 0, 1)
        assert pairwise_conflicts(toy_matrix, 1, 3)

    def test_no_shared_feature(self, toy_matrix):
        assert not pairwise_conflicts(toy_matrix, 0, 2)
        assert not pairwise_conflicts(toy_matrix, 0, 3)

    def test_empty_row_never_conflicts(self):
        X = CSRMatrix.from_rows([([], []), ([0], [1.0])], n_cols=2)
        assert not pairwise_conflicts(X, 0, 1)


def _brute_force_degrees(X):
    """Each row's conflict degree from ``pairwise_conflicts`` over every pair."""
    return [
        sum(pairwise_conflicts(X, i, j) for j in range(X.n_rows) if j != i)
        for i in range(X.n_rows)
    ]


class TestExactDegree:
    def test_degrees_match_expectation(self, toy_matrix):
        # Edges 0-1 and 1-3.
        assert _brute_force_degrees(toy_matrix) == [1, 2, 0, 1]

    def test_average_degree_equals_pairwise_brute_force(self, small_dataset):
        with_empty_row = CSRMatrix.from_rows(
            [([0, 1], [1.0, 1.0]), ([1, 2], [1.0, 1.0]), ([3], [1.0]), ([], [])], n_cols=4
        )
        for X in (with_empty_row, small_dataset[0]):
            degrees = _brute_force_degrees(X)
            assert average_conflict_degree(X) == sum(degrees) / X.n_rows

    def test_average_degree(self, toy_matrix):
        # Degrees: 1, 2, 0, 1 -> mean 1.0
        assert average_conflict_degree(toy_matrix) == pytest.approx(1.0)

    def test_max_rows_guard(self):
        X = CSRMatrix.from_dense(np.eye(10))
        with pytest.raises(ValueError, match="limit 5"):
            average_conflict_degree(X, max_rows=5)

    def test_disjoint_features_degree_zero(self):
        X = CSRMatrix.from_dense(np.eye(6))
        assert average_conflict_degree(X) == 0.0

    def test_fully_overlapping_clique(self):
        X = CSRMatrix.from_dense(np.ones((5, 1)))
        assert average_conflict_degree(X) == pytest.approx(4.0)


class TestSampledEstimator:
    def test_matches_exact_on_small_matrix(self, small_dataset):
        X, _, _ = small_dataset
        exact = average_conflict_degree(X)
        estimate = estimate_average_degree(X, sample_size=X.n_rows, seed=0)
        assert estimate == pytest.approx(exact, rel=1e-9)

    def test_subsampled_estimate_reasonable(self, small_dataset):
        X, _, _ = small_dataset
        exact = average_conflict_degree(X)
        estimate = estimate_average_degree(X, sample_size=40, seed=0)
        assert abs(estimate - exact) <= 0.35 * max(exact, 1.0)

    def test_empty_matrix(self):
        X = CSRMatrix.from_rows([], n_cols=3)
        assert estimate_average_degree(X) == 0.0


class TestStats:
    def test_exact_method_for_small(self, toy_matrix):
        stats = conflict_graph_stats(toy_matrix)
        assert stats.method == "exact"
        assert stats.average_degree == pytest.approx(1.0)
        assert stats.tau_bound_structural == pytest.approx(4.0)

    def test_sampled_method_for_large(self, small_dataset):
        X, _, _ = small_dataset
        stats = conflict_graph_stats(X, exact_threshold=10, sample_size=30, seed=0)
        assert stats.method == "sampled"
        assert stats.average_degree >= 0.0

    def test_sparser_data_has_lower_degree(self):
        from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification

        dense_spec = SyntheticSpec(n_samples=150, n_features=60, nnz_per_sample=20.0,
                                   feature_skew=0.5)
        sparse_spec = SyntheticSpec(n_samples=150, n_features=3000, nnz_per_sample=4.0,
                                    feature_skew=0.5)
        Xd, _, _ = make_sparse_classification(dense_spec, seed=0)
        Xs, _, _ = make_sparse_classification(sparse_spec, seed=0)
        assert (
            conflict_graph_stats(Xs, seed=0).normalized_degree
            < conflict_graph_stats(Xd, seed=0).normalized_degree
        )
