"""Unit tests for the kernel primitives and the objective batch API."""

import numpy as np
import pytest

from repro.kernels.reference import ReferenceKernel
from repro.kernels.vectorized import VectorizedKernel
from repro.objectives.logistic import LogisticObjective
from repro.objectives.registry import available_objectives, make_objective
from repro.objectives.regularizers import L2Regularizer
from repro.sparse.csr import CSRMatrix

BACKENDS = [ReferenceKernel(), VectorizedKernel()]


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(3)
    dense = rng.normal(size=(25, 18)) * (rng.random((25, 18)) < 0.3)
    dense[4] = 0.0  # an empty row
    return CSRMatrix.from_dense(dense), dense


@pytest.fixture(scope="module")
def weights():
    return np.random.default_rng(5).normal(size=18)


class TestLinearAlgebra:
    @pytest.mark.parametrize("kernel", BACKENDS, ids=lambda k: k.name)
    def test_matvec_matches_dense(self, kernel, matrix, weights):
        X, dense = matrix
        np.testing.assert_allclose(kernel.matvec(X, weights), dense @ weights, atol=1e-12)

    @pytest.mark.parametrize("kernel", BACKENDS, ids=lambda k: k.name)
    def test_rmatvec_matches_dense(self, kernel, matrix):
        X, dense = matrix
        v = np.random.default_rng(6).normal(size=X.n_rows)
        np.testing.assert_allclose(kernel.rmatvec(X, v), dense.T @ v, atol=1e-12)

    @pytest.mark.parametrize("kernel", BACKENDS, ids=lambda k: k.name)
    def test_subset_margins(self, kernel, matrix, weights):
        X, dense = matrix
        rows = np.array([4, 0, 7, 7, 24])  # includes the empty row and a repeat
        np.testing.assert_allclose(
            kernel.margins(X, weights, rows), dense[rows] @ weights, atol=1e-12
        )

    @pytest.mark.parametrize("kernel", BACKENDS, ids=lambda k: k.name)
    def test_batch_grad_matches_per_sample_sum(self, kernel, matrix, weights):
        X, _ = matrix
        obj = LogisticObjective(regularizer=L2Regularizer(1e-2))
        rows = np.array([1, 4, 1, 9])  # includes the empty row and a repeat
        y = np.ones(X.n_rows)
        scales = np.array([0.5, 2.0, -1.0, 3.0])
        cols, vals = kernel.batch_grad(obj, X, rows, weights, y, scales)
        dense = np.zeros(X.n_cols)
        dense[cols] = vals
        expected = np.zeros(X.n_cols)
        for t, i in enumerate(rows):
            x_idx, x_val = X.row(int(i))
            grad = obj.sample_grad(weights, x_idx, x_val, 1.0)
            np.add.at(expected, grad.indices, scales[t] * grad.values)
        np.testing.assert_allclose(dense, expected, atol=1e-13)
        # The support is compressed: only touched columns are returned.
        assert set(cols.tolist()) <= set(np.concatenate([X.row(int(i))[0] for i in rows]).tolist())

    def test_gather_rows_roundtrip(self, matrix):
        X, dense = matrix
        rows = np.array([2, 4, 2, 11])
        idx, val, lengths = X.gather_rows(rows)
        assert lengths.tolist() == [int(X.row_nnz(int(r))) for r in rows]
        rebuilt = np.zeros((rows.size, X.n_cols))
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        for t in range(rows.size):
            rebuilt[t, idx[offsets[t]:offsets[t + 1]]] = val[offsets[t]:offsets[t + 1]]
        np.testing.assert_allclose(rebuilt, dense[rows])


class TestPerSamplePath:
    @pytest.mark.parametrize("kernel", BACKENDS, ids=lambda k: k.name)
    def test_sample_grad_matches_objective(self, kernel, matrix, weights):
        X, _ = matrix
        obj = LogisticObjective(regularizer=L2Regularizer(1e-2))
        y = 1.0
        for i in (0, 4, 9):  # includes the empty row
            x_idx, x_val = X.row(i)
            expected = obj.sample_grad(weights, x_idx, x_val, y)
            idx, values = kernel.sample_grad(obj, X, i, weights, y)
            np.testing.assert_array_equal(idx, expected.indices)
            np.testing.assert_allclose(values, expected.values, atol=1e-15)

    def test_sample_update_identical_across_backends(self, matrix, weights):
        X, _ = matrix
        obj = LogisticObjective(regularizer=L2Regularizer(1e-2))
        w_ref, w_vec = weights.copy(), weights.copy()
        for i in range(X.n_rows):
            nnz_r = BACKENDS[0].sample_update(w_ref, obj, X, i, 1.0, -0.1)
            nnz_v = BACKENDS[1].sample_update(w_vec, obj, X, i, 1.0, -0.1)
            assert nnz_r == nnz_v == int(X.row_nnz(i))
        np.testing.assert_array_equal(w_ref, w_vec)


class TestBatchAPI:
    @pytest.mark.parametrize("objective_name", available_objectives())
    def test_batch_matches_scalar_hooks(self, objective_name, matrix, weights):
        X, _ = matrix
        obj = make_objective(objective_name, eta=1e-3)
        y = np.where(np.random.default_rng(8).random(X.n_rows) < 0.5, -1.0, 1.0)
        margins = obj.batch_margins(weights, X)
        coeffs = obj.batch_grad_coeffs(margins, y)
        losses = obj.batch_loss(margins, y)
        for i in range(X.n_rows):
            x_idx, x_val = X.row(i)
            assert coeffs[i] == pytest.approx(
                obj._loss_derivative(float(margins[i]), float(y[i])), abs=1e-12
            )
            assert losses[i] == pytest.approx(
                obj.sample_loss(weights, x_idx, x_val, float(y[i])), abs=1e-10
            )

    @pytest.mark.parametrize("kernel", BACKENDS, ids=lambda k: k.name)
    def test_full_gradient_matches_objective(self, kernel, matrix, weights):
        X, _ = matrix
        obj = LogisticObjective(regularizer=L2Regularizer(1e-2))
        y = np.where(np.arange(X.n_rows) % 2 == 0, 1.0, -1.0)
        np.testing.assert_allclose(
            kernel.full_gradient(obj, X, y, weights),
            obj.full_gradient(weights, X, y),
            atol=1e-12,
        )

    @pytest.mark.parametrize("kernel", BACKENDS, ids=lambda k: k.name)
    def test_evaluate_matches_objective_metrics(self, kernel, matrix, weights):
        X, _ = matrix
        obj = LogisticObjective(regularizer=L2Regularizer(1e-2))
        y = np.where(np.arange(X.n_rows) % 3 == 0, 1.0, -1.0)
        ev = kernel.evaluate(obj, X, y, weights)
        assert ev.rmse == pytest.approx(obj.rmse(weights, X, y), abs=1e-12)
        assert ev.error_rate == pytest.approx(obj.error_rate(weights, X, y), abs=1e-12)
