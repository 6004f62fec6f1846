"""Tests for repro.sparse.csr."""

import numpy as np
import pytest

from repro.sparse.csr import CSRMatrix, canonical_rows


@pytest.fixture()
def dense():
    return np.array(
        [
            [1.0, 0.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 3.0, 0.0, 4.0, 5.0],
            [6.0, 0.0, 0.0, 0.0, 7.0],
        ]
    )


@pytest.fixture()
def mat(dense):
    return CSRMatrix.from_dense(dense)


class TestConstruction:
    def test_from_dense_roundtrip(self, dense, mat):
        np.testing.assert_allclose(mat.to_dense(), dense)

    def test_shape_and_nnz(self, mat):
        assert mat.shape == (4, 5)
        assert mat.nnz == 7
        assert mat.density == pytest.approx(7 / 20)

    def test_from_rows_sorts_and_merges_duplicates(self):
        m = CSRMatrix.from_rows([([3, 1, 3], [1.0, 2.0, 4.0])], n_cols=5)
        idx, val = m.row(0)
        np.testing.assert_array_equal(idx, [1, 3])
        np.testing.assert_allclose(val, [2.0, 5.0])

    def test_from_rows_drops_zeros(self):
        m = CSRMatrix.from_rows([([0, 1], [0.0, 2.0])], n_cols=3)
        assert m.nnz == 1

    def test_empty_matrix(self):
        m = CSRMatrix.from_rows([], n_cols=4)
        assert m.shape == (0, 4)
        assert m.nnz == 0

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix(data=np.ones(2), indices=np.array([0, 1]), indptr=np.array([0, 1]), n_cols=3)

    def test_out_of_bounds_column_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_rows([([5], [1.0])], n_cols=3)

    def test_mismatched_row_shapes_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_rows([([0, 1], [1.0])], n_cols=3)


class TestRowAccess:
    def test_row_returns_indices_and_values(self, mat):
        idx, val = mat.row(2)
        np.testing.assert_array_equal(idx, [1, 3, 4])
        np.testing.assert_allclose(val, [3.0, 4.0, 5.0])

    def test_empty_row(self, mat):
        idx, val = mat.row(1)
        assert idx.size == 0 and val.size == 0

    def test_row_out_of_range(self, mat):
        with pytest.raises(IndexError):
            mat.row(4)
        with pytest.raises(IndexError):
            mat.row(-1)

    def test_row_nnz(self, mat):
        assert mat.row_nnz(0) == 2
        np.testing.assert_array_equal(mat.row_nnz(), [2, 0, 3, 2])

    def test_row_dot(self, mat, dense):
        w = np.arange(5, dtype=float)
        for i in range(4):
            assert mat.row_dot(i, w) == pytest.approx(dense[i] @ w)

    def test_row_norms(self, mat, dense):
        np.testing.assert_allclose(mat.row_norms(), np.linalg.norm(dense, axis=1))
        np.testing.assert_allclose(
            mat.row_norms(squared=True), np.linalg.norm(dense, axis=1) ** 2
        )


class TestMatVec:
    def test_dot_matches_dense(self, mat, dense):
        w = np.linspace(-1, 1, 5)
        np.testing.assert_allclose(mat.dot(w), dense @ w)

    def test_dot_wrong_shape(self, mat):
        with pytest.raises(ValueError):
            mat.dot(np.zeros(3))

    def test_transpose_dot_matches_dense(self, mat, dense):
        v = np.array([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_allclose(mat.transpose_dot(v), dense.T @ v)

    def test_transpose_dot_wrong_shape(self, mat):
        with pytest.raises(ValueError):
            mat.transpose_dot(np.zeros(2))

    def test_dot_empty_matrix(self):
        m = CSRMatrix.from_rows([([], [])], n_cols=3)
        np.testing.assert_allclose(m.dot(np.ones(3)), [0.0])


class TestRowSelection:
    def test_take_rows_reorders(self, mat, dense):
        sub = mat.take_rows([3, 0])
        np.testing.assert_allclose(sub.to_dense(), dense[[3, 0]])

    def test_take_rows_allows_repeats(self, mat, dense):
        sub = mat.take_rows([2, 2])
        np.testing.assert_allclose(sub.to_dense(), dense[[2, 2]])

    def test_take_rows_out_of_range(self, mat):
        with pytest.raises(ValueError):
            mat.take_rows([0, 10])

    def test_slice_rows(self, mat, dense):
        sub = mat.slice_rows(1, 3)
        np.testing.assert_allclose(sub.to_dense(), dense[1:3])

    def test_slice_rows_invalid(self, mat):
        with pytest.raises(IndexError):
            mat.slice_rows(3, 1)

    def test_getitem_int(self, mat):
        idx, val = mat[0]
        np.testing.assert_array_equal(idx, [0, 2])

    def test_getitem_slice(self, mat, dense):
        np.testing.assert_allclose(mat[1:4].to_dense(), dense[1:4])

    def test_getitem_array(self, mat, dense):
        np.testing.assert_allclose(mat[np.array([0, 2])].to_dense(), dense[[0, 2]])

    def test_equality(self, mat, dense):
        assert mat == CSRMatrix.from_dense(dense)
        assert mat != CSRMatrix.from_dense(dense * 2)


class TestCanonicalLayout:
    def test_duplicate_columns_within_row_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CSRMatrix(
                data=np.array([1.0, 2.0, 1.0]),
                indices=np.array([0, 0, 1]),
                indptr=np.array([0, 3]),
                n_cols=2,
            )

    def test_unsorted_columns_within_row_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CSRMatrix(
                data=np.array([1.0, 2.0]),
                indices=np.array([3, 1]),
                indptr=np.array([0, 2]),
                n_cols=4,
            )

    def test_decreasing_indices_across_row_boundary_allowed(self):
        mat = CSRMatrix(
            data=np.array([1.0, 2.0]),
            indices=np.array([3, 0]),
            indptr=np.array([0, 1, 2]),
            n_cols=4,
        )
        assert mat.n_rows == 2


class TestCanonicalRows:
    def test_duplicates_that_cancel_are_dropped(self):
        # Duplicates are summed before zeros are dropped.
        data, indices, indptr = canonical_rows([([2, 0, 2], [1.5, 4.0, -1.5])])
        np.testing.assert_array_equal(indices, [0])
        np.testing.assert_allclose(data, [4.0])
        np.testing.assert_array_equal(indptr, [0, 1])

    def test_no_rows(self):
        data, indices, indptr = canonical_rows([])
        assert data.size == 0 and indices.size == 0
        assert indices.dtype == np.int64
        np.testing.assert_array_equal(indptr, [0])

    def test_mismatched_row_names_the_row(self):
        with pytest.raises(ValueError, match="row 1"):
            canonical_rows([([0], [1.0]), ([0, 1], [1.0])])


class TestDtypeInvariants:
    """Regression guard for the documented fixed storage dtypes.

    The native C kernel backend reads ``data``/``indices``/``indptr``
    through raw ``double*``/``int32_t*`` pointers, so every constructor
    must normalise to exactly these dtypes — whatever numpy inferred for
    the inputs.
    """

    def _assert_canonical(self, mat: CSRMatrix) -> None:
        assert mat.data.dtype == np.float64
        assert mat.indices.dtype == np.int32
        assert mat.indptr.dtype == np.int32
        assert mat.data.flags["C_CONTIGUOUS"]
        assert mat.indices.flags["C_CONTIGUOUS"]
        assert mat.indptr.flags["C_CONTIGUOUS"]

    def test_construction_normalizes_inferred_dtypes(self):
        mat = CSRMatrix(
            data=np.array([1, 2, 3]),                      # int -> float64
            indices=np.array([0, 2, 1], dtype=np.int64),   # int64 -> int32
            indptr=np.array([0, 2, 3], dtype=np.uint64),   # uint64 -> int32
            n_cols=3,
        )
        self._assert_canonical(mat)

    def test_all_constructors_normalize(self):
        mat = CSRMatrix.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
        self._assert_canonical(mat)
        self._assert_canonical(CSRMatrix.from_rows([([0, 2], [1.0, 2.0])], n_cols=3))
        self._assert_canonical(mat.take_rows([1, 0, 1]))
        self._assert_canonical(mat.slice_rows(0, 1))

    def test_already_canonical_arrays_pass_through_without_copy(self):
        data = np.array([1.0, 2.0])
        indices = np.array([0, 1], dtype=np.int32)
        indptr = np.array([0, 1, 2], dtype=np.int32)
        mat = CSRMatrix(data=data, indices=indices, indptr=indptr, n_cols=2)
        assert mat.data is data
        assert mat.indices is indices
        assert mat.indptr is indptr

    def test_gather_rows_lengths_are_int64(self):
        mat = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
        idx, val, lengths = mat.gather_rows(np.array([0, 1, 0]))
        assert idx.dtype == np.int32
        assert val.dtype == np.float64
        assert lengths.dtype == np.int64

    def test_out_of_range_int32_inputs_rejected(self):
        with pytest.raises(ValueError, match="int32"):
            CSRMatrix(
                data=np.array([1.0]),
                indices=np.array([2**31], dtype=np.int64),
                indptr=np.array([0, 1]),
                n_cols=5,
            )
        with pytest.raises(ValueError, match="int32"):
            CSRMatrix(
                data=np.zeros(0),
                indices=np.zeros(0, dtype=np.int64),
                indptr=np.array([0]),
                n_cols=2**31,
            )
