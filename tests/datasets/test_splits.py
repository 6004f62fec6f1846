"""Tests for train/test splitting."""

import numpy as np
import pytest

from repro.datasets.splits import train_test_split


class TestTrainTestSplit:
    def test_sizes(self, small_dataset):
        X, y, _ = small_dataset
        Xtr, ytr, Xte, yte = train_test_split(X, y, test_fraction=0.25, seed=0)
        assert Xtr.n_rows + Xte.n_rows == X.n_rows
        assert abs(Xte.n_rows - 0.25 * X.n_rows) <= 2
        assert ytr.shape[0] == Xtr.n_rows and yte.shape[0] == Xte.n_rows

    def test_stratified_class_balance(self, small_dataset):
        X, y, _ = small_dataset
        _, ytr, _, yte = train_test_split(X, y, test_fraction=0.3, seed=0, stratify=True)
        pos_total = np.mean(y == 1)
        pos_test = np.mean(yte == 1)
        assert abs(pos_total - pos_test) < 0.1

    def test_reproducible(self, small_dataset):
        X, y, _ = small_dataset
        a = train_test_split(X, y, seed=5)
        b = train_test_split(X, y, seed=5)
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[3], b[3])

    def test_invalid_fraction(self, small_dataset):
        X, y, _ = small_dataset
        with pytest.raises(ValueError):
            train_test_split(X, y, test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(X, y, test_fraction=1.0)

    def test_mismatched_lengths(self, small_dataset):
        X, y, _ = small_dataset
        with pytest.raises(ValueError):
            train_test_split(X, y[:-1])

    def test_non_stratified_path(self, small_dataset):
        X, y, _ = small_dataset
        Xtr, ytr, Xte, yte = train_test_split(X, y, test_fraction=0.2, seed=0, stratify=False)
        assert Xtr.n_rows + Xte.n_rows == X.n_rows
