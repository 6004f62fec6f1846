"""Serving-side parity gate over the kernel registry.

Extends the registry-driven parity idiom of ``tests/kernels/test_parity.py``
to the serving layer: for every registered objective × every registered
kernel backend, a :class:`~repro.serving.model.ScoringModel` must produce
outputs identical to the ``reference`` backend — margins, predictions,
probabilities (where defined), the gathered-rows micro-batch path, and the
single-row path.  ``REPRO_KERNEL_BACKEND=native`` must accelerate serving
without changing a single response.
"""

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.kernels.registry import available_backends
from repro.objectives.registry import available_objectives, make_objective
from repro.serving import MicroBatcher, ScoringModel

ATOL = 1e-10
RTOL = 1e-9

COMPARED_BACKENDS = [name for name in available_backends() if name != "reference"]


@pytest.fixture(scope="module")
def scoring_problem():
    spec = SyntheticSpec(
        n_samples=50,
        n_features=35,
        nnz_per_sample=6.0,
        feature_skew=1.2,
        norm_spread=0.5,
        label_noise=0.02,
        name="serving_parity_smoke",
    )
    X, _, _ = make_sparse_classification(spec, seed=23)
    rng = np.random.default_rng(17)
    weights = rng.normal(size=spec.n_features)
    return X, weights


@pytest.mark.parametrize("backend", COMPARED_BACKENDS)
@pytest.mark.parametrize("objective_name", available_objectives())
def test_scoring_model_outputs_match_reference(scoring_problem, objective_name, backend):
    X, weights = scoring_problem
    reference = ScoringModel(
        weights, make_objective(objective_name), kernel="reference"
    )
    candidate = ScoringModel(weights, make_objective(objective_name), kernel=backend)

    ref_margins = reference.decision_function(X)
    np.testing.assert_allclose(
        candidate.decision_function(X), ref_margins, atol=ATOL, rtol=RTOL
    )
    if reference.objective.is_classification:
        # Class labels must be *identical*, not merely close.
        np.testing.assert_array_equal(candidate.predict(X), reference.predict(X))
    else:
        # Regression predictions are the margins themselves: backends may
        # differ in summation order, so compare at machine-epsilon scale.
        np.testing.assert_allclose(
            candidate.predict(X), reference.predict(X), atol=ATOL, rtol=RTOL
        )
    if reference.supports_proba:
        np.testing.assert_allclose(
            candidate.predict_proba(X),
            reference.predict_proba(X),
            atol=ATOL,
            rtol=RTOL,
        )

    # The micro-batcher's gathered-rows hot path.
    rows = np.arange(X.n_rows)
    idx, val, lengths = X.gather_rows(rows)
    np.testing.assert_allclose(
        candidate.decision_function_gathered(idx, val, lengths.astype(np.int64)),
        ref_margins,
        atol=ATOL,
        rtol=RTOL,
    )

    # The unbatched single-row path.
    for i in (0, X.n_rows // 2, X.n_rows - 1):
        assert candidate.score_row(*X.row(i)) == pytest.approx(
            ref_margins[i], abs=ATOL, rel=RTOL
        )


@pytest.mark.parametrize("backend", COMPARED_BACKENDS)
def test_micro_batched_responses_match_reference(scoring_problem, backend):
    """End-to-end through the batcher: backend choice never changes responses."""
    X, weights = scoring_problem
    reference = ScoringModel(
        weights, make_objective("logistic_l1"), kernel="reference"
    )
    expected = reference.decision_function(X)
    candidate = ScoringModel(weights, make_objective("logistic_l1"), kernel=backend)
    with MicroBatcher(candidate, max_batch=8) as batcher:
        pending = [batcher.submit(*X.row(i)) for i in range(X.n_rows)]
        responses = [p.result(timeout=10.0) for p in pending]
    for i, response in enumerate(responses):
        assert response["margin"] == pytest.approx(expected[i], abs=ATOL, rel=RTOL)
