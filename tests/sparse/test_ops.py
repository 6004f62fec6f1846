"""Tests for repro.sparse.ops."""

import numpy as np
import pytest

from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import segment_bool_any, sparse_norm_sq


class TestNormsAndScale:
    def test_norm_sq(self):
        assert sparse_norm_sq(np.array([3.0, 4.0])) == pytest.approx(25.0)
        assert sparse_norm_sq(np.array([])) == 0.0


class TestSegmentBoolAny:
    def test_any_per_segment(self):
        mask = np.array([False, True, False, False, False, True])
        lengths = np.array([2, 3, 1])
        np.testing.assert_array_equal(segment_bool_any(mask, lengths), [True, False, True])

    def test_empty_segments_are_false(self):
        # Empty rows sit between, before and after non-empty ones.
        mask = np.array([True, True, False])
        lengths = np.array([0, 1, 0, 2, 0])
        np.testing.assert_array_equal(
            segment_bool_any(mask, lengths), [False, True, False, True, False]
        )

    def test_no_entries_at_all(self):
        out = segment_bool_any(np.zeros(0, dtype=bool), np.array([0, 0, 0]))
        assert out.dtype == bool
        np.testing.assert_array_equal(out, [False, False, False])
        assert segment_bool_any(np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)).size == 0

    def test_matches_a_per_row_loop_on_gathered_rows(self):
        rng = np.random.default_rng(0)
        dense = rng.random((40, 12)) * (rng.random((40, 12)) < 0.2)
        X = CSRMatrix.from_dense(dense)
        rows = rng.integers(0, 40, size=60)
        idx, _, lengths = X.gather_rows(rows)
        hot = rng.random(12) < 0.3
        expected = [bool(hot[X.row(r)[0]].any()) for r in rows]
        np.testing.assert_array_equal(segment_bool_any(hot[idx], lengths), expected)
