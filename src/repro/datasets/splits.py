"""Train/test splitting utilities for :class:`~repro.sparse.csr.CSRMatrix` data."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_in_range


def train_test_split(
    X: CSRMatrix,
    y: np.ndarray,
    *,
    test_fraction: float = 0.2,
    seed: RandomState = 0,
    stratify: bool = True,
) -> Tuple[CSRMatrix, np.ndarray, CSRMatrix, np.ndarray]:
    """Split ``(X, y)`` into train and test partitions.

    Parameters
    ----------
    test_fraction:
        Fraction of rows put in the test partition (0 < f < 1).
    stratify:
        When the labels are ±1, keep the class balance identical in both
        partitions (per-class shuffling).

    Returns
    -------
    (X_train, y_train, X_test, y_test)
    """
    check_in_range(test_fraction, "test_fraction", low=0.0, high=1.0, inclusive=False)
    if y.shape[0] != X.n_rows:
        raise ValueError("X and y must have the same number of rows")
    rng = as_rng(seed)
    n = X.n_rows
    if stratify and np.all(np.isin(np.unique(y), (-1.0, 1.0))):
        test_idx_parts = []
        for cls in (-1.0, 1.0):
            cls_idx = np.nonzero(y == cls)[0]
            rng.shuffle(cls_idx)
            k = int(round(test_fraction * cls_idx.size))
            test_idx_parts.append(cls_idx[:k])
        test_idx = np.sort(np.concatenate(test_idx_parts))
    else:
        order = rng.permutation(n)
        k = int(round(test_fraction * n))
        test_idx = np.sort(order[:k])
    mask = np.zeros(n, dtype=bool)
    mask[test_idx] = True
    train_idx = np.nonzero(~mask)[0]

    return (
        X.take_rows(train_idx),
        y[train_idx],
        X.take_rows(test_idx),
        y[test_idx],
    )


__all__ = ["train_test_split"]
