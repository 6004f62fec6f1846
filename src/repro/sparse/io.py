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
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sparse.csr import CSRMatrix

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


def _open_text(path: PathLike, mode: str = "rt"):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)
    return open(path, mode)


def load_libsvm(
    path: PathLike,
    *,
    n_features: Optional[int] = None,
    zero_based: bool = False,
    max_rows: Optional[int] = None,
) -> Tuple[CSRMatrix, np.ndarray]:
    """Load a LibSVM file (optionally gzip-compressed).

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
        very large KDD files).

    Returns
    -------
    (X, y):
        The design matrix as :class:`CSRMatrix` and labels as a float array.
    """
    rows: List[Tuple[np.ndarray, np.ndarray]] = []
    labels: List[float] = []
    max_index = -1
    with _open_text(path) as handle:
        for raw in handle:
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
    X = CSRMatrix.from_rows(rows, n_cols=max(dim, 0))
    y = np.asarray(labels, dtype=np.float64)
    return X, y


def save_libsvm(X: CSRMatrix, y: Sequence[float], path: PathLike, *, precision: int = 8) -> None:
    """Write ``(X, y)`` in LibSVM format (1-based indices)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != X.n_rows:
        raise ValueError(f"label count {y.shape[0]} does not match row count {X.n_rows}")
    path = Path(path)
    fmt = f"{{:.{precision}g}}"
    with _open_text(path, "wt") as handle:
        for i in range(X.n_rows):
            idx, val = X.row(i)
            label = y[i]
            label_str = str(int(label)) if float(label).is_integer() else fmt.format(label)
            tokens = [label_str]
            tokens.extend(f"{int(c) + 1}:{fmt.format(v)}" for c, v in zip(idx, val))
            handle.write(" ".join(tokens) + "\n")


def loads_libsvm(text: str, *, n_features: Optional[int] = None) -> Tuple[CSRMatrix, np.ndarray]:
    """Parse LibSVM content from an in-memory string (convenience for tests)."""
    rows: List[Tuple[np.ndarray, np.ndarray]] = []
    labels: List[float] = []
    max_index = -1
    for raw in io.StringIO(text):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        label, idx, val = parse_libsvm_line(stripped)
        labels.append(label)
        rows.append((idx, val))
        if idx.size:
            max_index = max(max_index, int(idx.max()))
    dim = n_features if n_features is not None else max_index + 1
    X = CSRMatrix.from_rows(rows, n_cols=max(dim, 0))
    return X, np.asarray(labels, dtype=np.float64)


__all__ = ["parse_libsvm_line", "load_libsvm", "save_libsvm", "loads_libsvm"]
