"""LibSVM text-format input/output.

The paper's datasets (News20, URL, KDD2010 Algebra/Bridge) are distributed
in the LibSVM format ``label index:value index:value ...`` with 1-based
feature indices.  This module reads and writes that format so that users
with the real files can reproduce the experiments on them; the benchmark
harness itself uses synthetic surrogates (see :mod:`repro.datasets`).
"""

from __future__ import annotations

import gzip
import io
import warnings
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sparse.csr import CSRMatrix, canonical_rows

PathLike = Union[str, Path]


def parse_libsvm_line(
    line: str, *, zero_based: bool = False
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Parse one LibSVM line into ``(label, indices, values)``.

    Feature indices in the file are 1-based (0-based with ``zero_based``)
    and are converted to 0-based.  Comments introduced by ``#`` are
    stripped.  Malformed feature tokens raise ``ValueError`` naming the
    offending token.
    """
    first = 0 if zero_based else 1
    line = line.split("#", 1)[0].strip()
    if not line:
        raise ValueError("cannot parse an empty line")
    parts = line.split()
    label = float(parts[0])
    idx: List[int] = []
    val: List[float] = []
    for token in parts[1:]:
        try:
            col_str, val_str = token.split(":", 1)
            col = int(col_str)
            value = float(val_str)
        except ValueError as exc:  # noqa: PERF203 - error path only
            raise ValueError(f"malformed feature token {token!r}") from exc
        if col < first:
            raise ValueError(f"feature indices must be >= {first}, got {col}")
        idx.append(col - first)
        val.append(value)
    return label, np.asarray(idx, dtype=np.int64), np.asarray(val, dtype=np.float64)


def _open(path: PathLike, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)
    return open(path, mode)


#: Bytes the reader takes at a time; each chunk is extended to the end of
#: the line it stops in, so chunks hold whole lines.
_CHUNK_BYTES = 1 << 20


#: Byte classes of the bulk parse; 0 marks a byte it does not take.
_WHITESPACE, _NON_DIGIT, _DIGIT, _COLON = 1, 2, 3, 4


def _byte_classes() -> np.ndarray:
    table = np.zeros(256, dtype=np.uint8)
    table[list(b" \t\r\n")] = _WHITESPACE
    table[list(b".eE+-")] = _NON_DIGIT  # number bytes a feature index may not hold
    table[list(b"0123456789")] = _DIGIT
    table[ord(":")] = _COLON
    return table


_BYTE_CLASS = _byte_classes()
#: Longest feature index the bulk parse takes: up to 15 digits parse
#: exactly as a float64.
_MAX_INDEX_DIGITS = 15

_Part = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]


def _parse_chunk(chunk: bytes, first: int, limit: Optional[int]) -> Optional[_Part]:
    """Bulk-parse whole lines; ``None`` when any check fails.

    Returns ``(labels, row_lengths, indices, values, max_index)`` for at
    most ``limit`` rows, in the canonical layout of
    :func:`~repro.sparse.csr.canonical_rows`.  Every line must be ``label (ws
    index:value)*`` with digit-only indices of at least ``first``,
    strictly increasing within the row, and bytes from ``0-9 . e E + - :``,
    space, tab and CRLF only.  Anything else — comments, ``nan``/``inf``,
    a lone CR, a malformed token — is left to the per-line parse.
    """
    b = np.frombuffer(chunk, dtype=np.uint8)
    kind = _BYTE_CLASS.take(b)
    if not kind.all():
        # Also keeps spelled-out values from np.fromstring, which reads
        # "-nan" without its sign and accepts "nan(1)"; float() does not.
        return None
    cr = np.flatnonzero(b == 13)
    if cr.size and (cr[-1] == b.size - 1 or (b[cr + 1] != 10).any()):
        return None  # a lone CR ends a line in the per-line parse
    # Padded with whitespace at both ends, the edges alternate token start,
    # token end.
    ws = np.concatenate(([True], kind == _WHITESPACE, [True]))
    starts = np.flatnonzero(ws[1:] != ws[:-1])[0::2]
    if starts.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros(0), empty, empty, np.zeros(0), -1
    line = np.searchsorted(np.flatnonzero(b == 10), starts)
    is_label = np.ones(starts.size, dtype=bool)
    is_label[1:] = line[1:] != line[:-1]
    is_feature = ~is_label
    # A label holds no colon and a feature token exactly one, so the colons
    # line up with the feature tokens in order.
    colons = np.flatnonzero(kind == _COLON)
    per_token = np.bincount(np.searchsorted(starts, colons, side="right") - 1,
                            minlength=starts.size)
    if not np.array_equal(per_token, is_feature):
        return None
    f_start = starts[is_feature]
    non_digits = np.flatnonzero(kind == _NON_DIGIT)
    if (colons - f_start > _MAX_INDEX_DIGITS).any() or (
        np.searchsorted(non_digits, colons) != np.searchsorted(non_digits, f_start)
    ).any():
        return None
    try:
        with warnings.catch_warnings():  # older numpy warns where newer numpy raises
            warnings.simplefilter("error", DeprecationWarning)
            numbers = np.fromstring(chunk.replace(b":", b" "), sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if numbers.size != starts.size + colons.size:
        return None  # an empty index or value: ":1" or "1:" is one number
    at = np.arange(starts.size) + np.cumsum(is_feature) - is_feature
    labels = numbers[at[is_label]]
    idx = numbers[at[is_feature]].astype(np.int64) - first
    val = numbers[at[is_feature] + 1]
    row = (np.cumsum(is_label) - 1)[is_feature]
    same_row = row[1:] == row[:-1]
    if (idx < 0).any() or (np.diff(idx)[same_row] <= 0).any():
        return None
    if limit is not None and labels.size > limit:
        kept = row < limit
        labels, idx, val, row = labels[:limit], idx[kept], val[kept], row[kept]
    max_index = int(idx.max()) if idx.size else -1
    nonzero = val != 0.0
    lengths = np.bincount(row[nonzero], minlength=labels.size)
    return labels, lengths, idx[nonzero], val[nonzero], max_index


def _parse_lines(chunk: bytes, zero_based: bool, limit: Optional[int]) -> _Part:
    """The per-line parse of a chunk (:func:`parse_libsvm_line`, as text)."""
    rows: List[Tuple[np.ndarray, np.ndarray]] = []
    labels: List[float] = []
    max_index = -1
    for raw in io.TextIOWrapper(io.BytesIO(chunk)):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        label, idx, val = parse_libsvm_line(stripped, zero_based=zero_based)
        labels.append(label)
        rows.append((idx, val))
        if idx.size:
            max_index = max(max_index, int(idx.max()))
        if limit is not None and len(rows) >= limit:
            break
    data, indices, indptr = canonical_rows(rows)
    return np.asarray(labels, dtype=np.float64), np.diff(indptr), indices, data, max_index


def _read_libsvm(
    handle, n_features: Optional[int], zero_based: bool, max_rows: Optional[int]
) -> Tuple[CSRMatrix, np.ndarray]:
    """Read a binary LibSVM stream chunk by chunk (see :func:`load_libsvm`)."""
    first = 0 if zero_based else 1
    limit = None if max_rows is None else int(max_rows)
    parts: List[_Part] = []
    n_rows = 0
    while limit is None or n_rows < limit:
        chunk = handle.read(_CHUNK_BYTES)
        if not chunk:
            break
        if not chunk.endswith(b"\n"):
            chunk += handle.readline()
        left = None if limit is None else limit - n_rows
        part = _parse_chunk(chunk, first, left)
        if part is None:
            part = _parse_lines(chunk, zero_based, left)
        parts.append(part)
        n_rows += part[0].size
    max_index = max((part[4] for part in parts), default=-1)
    dim = n_features if n_features is not None else max_index + 1
    if dim < max_index + 1:
        raise ValueError(
            f"n_features={dim} is smaller than the largest observed index + 1 ({max_index + 1})"
        )
    labels, lengths, indices, values = (
        np.concatenate([part[k] for part in parts] or [np.zeros(0)]) for k in range(4)
    )
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    X = CSRMatrix(data=values, indices=indices, indptr=indptr, n_cols=max(dim, 0))
    return X, labels


def load_libsvm(
    path: PathLike,
    *,
    n_features: Optional[int] = None,
    zero_based: bool = False,
    max_rows: Optional[int] = None,
) -> Tuple[CSRMatrix, np.ndarray]:
    """Load a LibSVM file (optionally gzip-compressed).

    The file is read in chunks of whole lines, about 1 MiB each.
    A chunk of plain ``label index:value ...`` lines is checked and parsed
    with a few numpy passes over its bytes; any other chunk (comments,
    ``nan``/``inf``, malformed tokens) goes through
    :func:`parse_libsvm_line` line by line, which raises on a bad token.
    Both give the same matrix, so the result does not depend on the path
    a chunk took, and memory beyond the result scales with the chunk.

    Parameters
    ----------
    path:
        File to read; ``.gz`` suffixed paths are decompressed transparently.
    n_features:
        Force the feature dimensionality; by default it is inferred as the
        maximum observed index + 1.
    zero_based:
        Set to True if the file already uses 0-based indices.
    max_rows:
        Optional cap on the number of rows read (useful for sub-sampling the
        very large KDD files); reading stops once it is reached.  A cap
        below 1 raises :class:`ValueError`.

    Returns
    -------
    (X, y):
        The design matrix as :class:`CSRMatrix` and labels as a float array.
    """
    if max_rows is not None and int(max_rows) < 1:
        raise ValueError(f"max_rows must be at least 1, got {max_rows}")
    with _open(path, "rb") as handle:
        return _read_libsvm(handle, n_features, zero_based, max_rows)


def save_libsvm(X: CSRMatrix, y: Sequence[float], path: PathLike, *, precision: int = 8) -> None:
    """Write ``(X, y)`` in LibSVM format (1-based indices)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != X.n_rows:
        raise ValueError(f"label count {y.shape[0]} does not match row count {X.n_rows}")
    path = Path(path)
    fmt = f"{{:.{precision}g}}"
    with _open(path, "wt") as handle:
        for i in range(X.n_rows):
            idx, val = X.row(i)
            label = y[i]
            label_str = str(int(label)) if float(label).is_integer() else fmt.format(label)
            tokens = [label_str]
            tokens.extend(f"{int(c) + 1}:{fmt.format(v)}" for c, v in zip(idx, val))
            handle.write(" ".join(tokens) + "\n")


def loads_libsvm(text: str, *, n_features: Optional[int] = None) -> Tuple[CSRMatrix, np.ndarray]:
    """Parse LibSVM content from an in-memory string (convenience for tests)."""
    return _read_libsvm(io.BytesIO(text.encode()), n_features, False, None)


__all__ = ["parse_libsvm_line", "load_libsvm", "save_libsvm", "loads_libsvm"]
