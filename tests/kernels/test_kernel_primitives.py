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
    def test_subset_margins(self, kernel, matrix, weights):
        X, dense = matrix
        rows = np.array([4, 0, 7, 7, 24])  # includes the empty row and a repeat
        np.testing.assert_allclose(
            kernel.margins(X, weights, rows), dense[rows] @ weights, atol=1e-12
        )

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
    def test_evaluate_matches_objective_metrics(self, kernel, matrix, weights):
        X, _ = matrix
        obj = LogisticObjective(regularizer=L2Regularizer(1e-2))
        y = np.where(np.arange(X.n_rows) % 3 == 0, 1.0, -1.0)
        ev = kernel.evaluate(obj, X, y, weights)
        assert ev.rmse == pytest.approx(obj.rmse(weights, X, y), abs=1e-12)
        assert ev.error_rate == pytest.approx(obj.error_rate(weights, X, y), abs=1e-12)
