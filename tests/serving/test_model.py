"""Unit tests for :class:`repro.serving.model.ScoringModel`."""

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.metrics.convergence import ConvergenceCurve
from repro.metrics.tracing import RunRecord
from repro.objectives.registry import make_objective
from repro.serving.model import ScoringModel, _normalise_query


@pytest.fixture(scope="module")
def problem():
    spec = SyntheticSpec(
        n_samples=40,
        n_features=25,
        nnz_per_sample=5.0,
        feature_skew=1.0,
        norm_spread=0.5,
        label_noise=0.02,
        name="serving_model_smoke",
    )
    X, y, _ = make_sparse_classification(spec, seed=11)
    rng = np.random.default_rng(7)
    w = rng.normal(size=spec.n_features)
    return X, y, w


def test_weights_are_frozen_and_copied(problem):
    _, _, w = problem
    source = w.copy()
    model = ScoringModel(source, make_objective("logistic_l1"))
    source[0] = 1e9  # mutating the input must not reach the model
    assert model.weights[0] == w[0]
    with pytest.raises((ValueError, RuntimeError)):
        model.weights[0] = 0.0


def test_weights_must_be_one_dimensional():
    with pytest.raises(ValueError, match="1-D"):
        ScoringModel(np.zeros((3, 3)), make_objective("logistic_l1"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_are_rejected(problem, bad):
    # A diverged run is never served: its margins would be NaN.
    _, _, w = problem
    diverged = w.copy()
    diverged[2] = bad
    with pytest.raises(ValueError, match="finite"):
        ScoringModel(diverged, make_objective("logistic_l1"))


def test_decision_function_matches_dense_dot(problem):
    X, _, w = problem
    model = ScoringModel(w, make_objective("logistic_l1"))
    expected = X.to_dense().dot(model.weights)
    np.testing.assert_allclose(model.decision_function(X), expected, atol=1e-12)
    rows = np.array([3, 0, 7])
    np.testing.assert_allclose(
        model.decision_function(X, rows), expected[rows], atol=1e-12
    )


def test_predict_and_proba_are_objective_aware(problem):
    X, _, w = problem
    logistic = ScoringModel(w, make_objective("logistic_l1"))
    assert logistic.supports_proba
    proba = logistic.predict_proba(X)
    assert np.all((proba >= 0.0) & (proba <= 1.0))
    preds = logistic.predict(X)
    assert set(np.unique(preds)) <= {-1.0, 1.0}

    hinge = ScoringModel(w, make_objective("hinge"))
    assert not hinge.supports_proba
    with pytest.raises(ValueError, match="does not define class probabilities"):
        hinge.predict_proba(X)


def test_score_row_matches_batch_margins(problem):
    X, _, w = problem
    model = ScoringModel(w, make_objective("logistic_l1"))
    margins = model.decision_function(X)
    for i in (0, 5, X.n_rows - 1):
        assert model.score_row(*X.row(i)) == pytest.approx(margins[i], abs=1e-12)


def test_from_record_requires_weights():
    record = RunRecord(
        dataset="d", solver="sgd", num_workers=1, curve=ConvergenceCurve(label="d")
    )
    with pytest.raises(ValueError, match="no trained weights"):
        ScoringModel.from_record(record)


def test_from_record_builds_objective_from_identity(problem):
    _, _, w = problem
    record = RunRecord(
        dataset="d",
        solver="sgd",
        num_workers=1,
        curve=ConvergenceCurve(label="d"),
        info={"weights": list(w)},
    )
    identity = {
        "objective": "hinge",
        "regularization": 0.5,
        "epochs": 3,
        "seed": 9,
    }
    model = ScoringModel.from_record(record, identity=identity, key="abc")
    assert model.objective.name == "hinge"
    assert model.meta["key"] == "abc"
    assert model.meta["seed"] == 9
    described = model.describe()
    assert described["objective"] == "hinge"
    assert described["n_features"] == w.size
    assert described["supports_proba"] is False


def test_normalise_query_validates():
    idx, val = _normalise_query([0, 2], [1.0, -1.0], n_features=5)
    assert idx.dtype == np.int32 and val.dtype == np.float64
    with pytest.raises(ValueError, match="parallel 1-D"):
        _normalise_query([0, 1], [1.0], n_features=5)
    with pytest.raises(ValueError, match="out of range"):
        _normalise_query([0, 5], [1.0, 2.0], n_features=5)
    with pytest.raises(ValueError, match="out of range"):
        _normalise_query([-1], [1.0], n_features=5)
    # An empty row is a valid (zero-margin) query.
    idx, val = _normalise_query([], [], n_features=5)
    assert idx.size == 0 and val.size == 0
