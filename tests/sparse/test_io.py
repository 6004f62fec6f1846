"""Tests for repro.sparse.io (LibSVM format)."""

import gzip
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import io as libsvm_io
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

    @pytest.mark.parametrize("max_rows", [0, -1])
    def test_max_rows_below_one_is_rejected(self, tmp_path, max_rows):
        X, y = self._example()
        path = tmp_path / "data.libsvm"
        save_libsvm(X, y, path)
        with pytest.raises(ValueError, match="max_rows must be at least 1"):
            load_libsvm(path, max_rows=max_rows)

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


# --------------------------------------------------------------------- #
# The bulk reader against the per-line parse
# --------------------------------------------------------------------- #
def _per_line_load(text, *, n_features=None, zero_based=False, max_rows=None):
    """The reference loader: :func:`parse_libsvm_line` on each text line."""
    rows, labels, max_index = [], [], -1
    for raw in io.StringIO(text, newline=None):  # universal newlines, as a text file
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        label, idx, val = parse_libsvm_line(stripped, zero_based=zero_based)
        labels.append(label)
        rows.append((idx, val))
        if idx.size:
            max_index = max(max_index, int(idx.max()))
        if max_rows is not None and len(rows) >= max_rows:
            break
    dim = n_features if n_features is not None else max_index + 1
    if dim < max_index + 1:
        raise ValueError(
            f"n_features={dim} is smaller than the largest observed index + 1 ({max_index + 1})"
        )
    return CSRMatrix.from_rows(rows, n_cols=max(dim, 0)), np.asarray(labels, dtype=np.float64)


def _assert_bit_identical(got, want):
    (X, y), (X_ref, y_ref) = got, want
    assert X.n_cols == X_ref.n_cols
    for a, b in ((X.data, X_ref.data), (X.indices, X_ref.indices),
                 (X.indptr, X_ref.indptr), (y, y_ref)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.fixture(params=[1 << 20, 16], ids=["1MiB-chunks", "16B-chunks"])
def chunk_bytes(request, monkeypatch):
    """Run each case with the default chunk and with chunks shorter than a line."""
    monkeypatch.setattr(libsvm_io, "_CHUNK_BYTES", request.param)
    return request.param


def _write(tmp_path, text, name="data.libsvm"):
    path = tmp_path / name
    if name.endswith(".gz"):
        with gzip.open(path, "wb") as fh:
            fh.write(text.encode())
    else:
        path.write_bytes(text.encode())
    return path


READER_CASES = {
    "plain": "1 1:0.5 3:-2\n-1 2:1e-3 4:7\n1 5:3.25\n",
    "comments": "# header line\n1 1:1 3:2 # trailing\n#\n-1 2:0.5#tight\n",
    "blank-and-whitespace-lines": "\n   \n\t\n1 1:1\n \t \n-1 2:2\n\n",
    "crlf-and-tabs": "1\t1:1\t3:2\r\n-1 2:0.5\r\n\r\n1 \t 4:8\r\n",
    "lone-cr": "1 1:1\r-1 2:2\n",
    "nan-inf": "1 1:nan 2:inf 3:-inf\n-1 2:NaN 3:-nan 4:1e999 5:1_0\n",
    "label-only-and-zeros": "1\n-1 1:0 2:0.0 3:-0\n2.5 2:1\n",
    "unsorted-and-duplicates": "1 3:1 1:2 3:4\n-1 2:1 2:-1\n",
    "signs-and-exponents": "+1 01:+.5 2:5. 3:-1E-5 4:1e+300 5:4.9e-324\n-1.5e0 6:1\n",
    "no-final-newline": "1 1:1\n-1 2:2",
    "empty": "",
    "whitespace-only": " \n\t\n",
}


class TestBulkReaderParity:
    @pytest.mark.parametrize("name", sorted(READER_CASES))
    @pytest.mark.parametrize("suffix", ["", ".gz"])
    def test_matches_the_per_line_parse(self, tmp_path, chunk_bytes, name, suffix):
        text = READER_CASES[name]
        path = _write(tmp_path, text, "data.libsvm" + suffix)
        _assert_bit_identical(load_libsvm(path), _per_line_load(text))
        _assert_bit_identical(loads_libsvm(text), _per_line_load(text))

    @pytest.mark.parametrize("zero_based", [False, True])
    def test_zero_based_both_ways(self, tmp_path, chunk_bytes, zero_based):
        text = "1 1:1.5 3:-3\n-1 2:2 7:1\n"
        path = _write(tmp_path, text)
        _assert_bit_identical(load_libsvm(path, zero_based=zero_based),
                              _per_line_load(text, zero_based=zero_based))
        text = "1 0:1.5 2:-3\n"
        path = _write(tmp_path, text)
        _assert_bit_identical(load_libsvm(path, zero_based=True),
                              _per_line_load(text, zero_based=True))

    @pytest.mark.parametrize("max_rows", [1, 2, 3, 10])
    @pytest.mark.parametrize("tail", ["", "this line is malformed\n"], ids=["plain", "bad-line-after"])
    def test_max_rows(self, tmp_path, chunk_bytes, max_rows, tail):
        text = "1 1:1\n\n-1 2:2 5:1\n1 3:3\n" + (tail if max_rows <= 3 else "")
        path = _write(tmp_path, text)
        _assert_bit_identical(load_libsvm(path, max_rows=max_rows),
                              _per_line_load(text, max_rows=max_rows))

    @pytest.mark.parametrize("index", ["9", "12345678901234567"], ids=["short", "17-digit"])
    def test_n_features_below_the_largest_index(self, tmp_path, chunk_bytes, index):
        text = f"1 1:1 {index}:2\n"
        path = _write(tmp_path, text)
        with pytest.raises(ValueError) as want:
            _per_line_load(text, n_features=4)
        with pytest.raises(ValueError) as got:
            load_libsvm(path, n_features=4)
        assert str(got.value) == str(want.value)
        text = "1 1:1 9:2\n"
        path = _write(tmp_path, text)
        _assert_bit_identical(load_libsvm(path, n_features=12), _per_line_load(text, n_features=12))

    @pytest.mark.parametrize(
        "token", ["3", "a:1", "1:2:3", "1.5:2", "1e3:1", "0:1", ":1", "1:", "1:2e", "1:nan(1)"]
    )
    @pytest.mark.parametrize("line", ["-1 {} 7:1", "-1 2:1 {}"], ids=["first", "last"])
    def test_rejected_tokens_raise_the_per_line_error(self, tmp_path, chunk_bytes, token, line):
        text = "1 1:1\n" + line.format(token) + "\n1 3:1\n"
        self._assert_same_error(tmp_path, text)

    @pytest.mark.parametrize("text", ["1 1:1\r2:2\n", "1 1:1\n-1 2:2\r"], ids=["mid-line", "at-eof"])
    def test_a_lone_cr_ends_a_line(self, tmp_path, chunk_bytes, text):
        if text.endswith("\n"):
            self._assert_same_error(tmp_path, text)  # "2:2" became a label
        else:
            _assert_bit_identical(load_libsvm(_write(tmp_path, text)), _per_line_load(text))

    @staticmethod
    def _assert_same_error(tmp_path, text):
        with pytest.raises(ValueError) as want:
            _per_line_load(text)
        with pytest.raises(ValueError) as got:
            load_libsvm(_write(tmp_path, text))
        assert str(got.value) == str(want.value)

    def test_a_line_longer_than_one_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(libsvm_io, "_CHUNK_BYTES", 64)
        long_row = " ".join(f"{j}:{j / 7:.17g}" for j in range(1, 400))
        text = f"1 1:1\n-1 {long_row}\n1 2:2\n"
        path = _write(tmp_path, text)
        _assert_bit_identical(load_libsvm(path), _per_line_load(text))

    def test_plain_lines_take_the_bulk_parse(self, tmp_path, monkeypatch):
        def per_line_parse(*args, **kwargs):
            raise AssertionError("a plain chunk went through the per-line parse")

        monkeypatch.setattr(libsvm_io, "parse_libsvm_line", per_line_parse)
        X, y = load_libsvm(_write(tmp_path, READER_CASES["crlf-and-tabs"]))
        assert X.n_rows == 3 and y.tolist() == [1.0, -1.0, 1.0]

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n_rows=st.integers(0, 8),
        n_cols=st.integers(1, 12),
    )
    def test_save_load_round_trip(self, tmp_path_factory, data, n_rows, n_cols):
        floats = st.floats(allow_nan=False, allow_infinity=False)
        dense = np.array(
            data.draw(st.lists(st.lists(st.one_of(st.just(0.0), floats),
                                        min_size=n_cols, max_size=n_cols),
                               min_size=n_rows, max_size=n_rows)),
            dtype=np.float64,
        ).reshape(n_rows, n_cols)
        labels = np.array(data.draw(st.lists(st.one_of(st.integers(-3, 3).map(float), floats),
                                             min_size=n_rows, max_size=n_rows)), dtype=np.float64)
        path = tmp_path_factory.mktemp("roundtrip") / "data.libsvm"
        save_libsvm(CSRMatrix.from_dense(dense), labels, path, precision=17)
        _assert_bit_identical(load_libsvm(path), _per_line_load(path.read_text()))
