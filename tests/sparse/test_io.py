"""Tests for repro.sparse.io (LibSVM format)."""

import gzip

import numpy as np
import pytest

from repro.sparse.csr import CSRMatrix
from repro.sparse.io import load_libsvm, loads_libsvm, parse_libsvm_line, save_libsvm


class TestParseLine:
    def test_basic_line(self):
        label, idx, val = parse_libsvm_line("+1 3:0.5 7:2")
        assert label == 1.0
        np.testing.assert_array_equal(idx, [2, 6])
        np.testing.assert_allclose(val, [0.5, 2.0])

    def test_negative_label(self):
        label, _, _ = parse_libsvm_line("-1 1:1")
        assert label == -1.0

    def test_comment_stripped(self):
        label, idx, _ = parse_libsvm_line("1 1:1 # a comment")
        assert idx.size == 1

    def test_label_only(self):
        label, idx, val = parse_libsvm_line("2.5")
        assert label == 2.5 and idx.size == 0

    def test_empty_line_raises(self):
        with pytest.raises(ValueError):
            parse_libsvm_line("   ")

    def test_malformed_token_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_libsvm_line("1 3-0.5")

    def test_zero_index_raises(self):
        with pytest.raises(ValueError, match=">= 1"):
            parse_libsvm_line("1 0:2.0")


class TestLoadsLibsvm:
    def test_parses_multiple_rows(self):
        text = "1 1:1.0 3:2.0\n-1 2:0.5\n"
        X, y = loads_libsvm(text)
        assert X.shape == (2, 3)
        np.testing.assert_array_equal(y, [1.0, -1.0])

    def test_n_features_override(self):
        X, _ = loads_libsvm("1 1:1\n", n_features=10)
        assert X.n_cols == 10

    def test_blank_lines_ignored(self):
        X, y = loads_libsvm("\n1 1:1\n\n-1 1:2\n")
        assert X.n_rows == 2


class TestFileRoundtrip:
    def _example(self):
        dense = np.array([[0.0, 1.5, 0.0], [2.0, 0.0, -3.0], [0.0, 0.0, 0.0]])
        return CSRMatrix.from_dense(dense), np.array([1.0, -1.0, 1.0])

    def test_roundtrip_plain(self, tmp_path):
        X, y = self._example()
        path = tmp_path / "data.libsvm"
        save_libsvm(X, y, path)
        X2, y2 = load_libsvm(path, n_features=3)
        np.testing.assert_allclose(X2.to_dense(), X.to_dense())
        np.testing.assert_array_equal(y2, y)

    def test_roundtrip_gzip(self, tmp_path):
        X, y = self._example()
        path = tmp_path / "data.libsvm.gz"
        save_libsvm(X, y, path)
        with gzip.open(path, "rt") as fh:
            assert fh.readline().strip().startswith("1")
        X2, y2 = load_libsvm(path, n_features=3)
        np.testing.assert_allclose(X2.to_dense(), X.to_dense())

    def test_save_mismatched_labels(self, tmp_path):
        X, _ = self._example()
        with pytest.raises(ValueError):
            save_libsvm(X, np.array([1.0]), tmp_path / "bad.libsvm")

    def test_max_rows(self, tmp_path):
        X, y = self._example()
        path = tmp_path / "data.libsvm"
        save_libsvm(X, y, path)
        X2, y2 = load_libsvm(path, max_rows=2, n_features=3)
        assert X2.n_rows == 2

    def test_n_features_too_small(self, tmp_path):
        X, y = self._example()
        path = tmp_path / "data.libsvm"
        save_libsvm(X, y, path)
        with pytest.raises(ValueError):
            load_libsvm(path, n_features=1)

    def test_zero_based_file_with_index_zero(self, tmp_path):
        path = tmp_path / "zero.libsvm"
        path.write_text("1 0:1.5 2:-3\n-1 1:2\n")
        X, y = load_libsvm(path, zero_based=True)
        np.testing.assert_array_equal(X.to_dense(), [[1.5, 0.0, -3.0], [0.0, 2.0, 0.0]])
        np.testing.assert_array_equal(y, [1.0, -1.0])

    def test_zero_based_file_without_index_zero_is_not_shifted(self, tmp_path):
        path = tmp_path / "zero.libsvm"
        path.write_text("1 1:1.5 3:-3\n")
        X, _ = load_libsvm(path, zero_based=True)
        assert X.n_cols == 4
        np.testing.assert_array_equal(X.row(0)[0], [1, 3])
        with pytest.raises(ValueError, match=">= 0, got -1"):
            parse_libsvm_line("1 -1:2.0", zero_based=True)

    def test_float_labels_preserved(self, tmp_path):
        X = CSRMatrix.from_dense(np.array([[1.0]]))
        y = np.array([0.25])
        path = tmp_path / "reg.libsvm"
        save_libsvm(X, y, path)
        _, y2 = load_libsvm(path)
        assert y2[0] == pytest.approx(0.25)
