"""Unit tests for the micro-batching request queue."""

import sys
import threading

import numpy as np
import pytest

from repro.cli.serve import _parse_query
from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.objectives.registry import make_objective
from repro.serving import MicroBatcher, ScoringModel
from repro.serving.model import _normalise_query


@pytest.fixture(scope="module")
def served():
    spec = SyntheticSpec(
        n_samples=60,
        n_features=40,
        nnz_per_sample=6.0,
        feature_skew=1.0,
        norm_spread=0.5,
        label_noise=0.02,
        name="serving_batcher_smoke",
    )
    X, _, _ = make_sparse_classification(spec, seed=5)
    rng = np.random.default_rng(1)
    model = ScoringModel(rng.normal(size=spec.n_features), make_objective("logistic_l1"))
    return X, model


@pytest.mark.parametrize("clients", [1, 3])
def test_batched_margins_match_direct_scoring(served, clients):
    X, model = served
    expected = model.decision_function(X)
    predictions = model.predict(X)
    probas = model.predict_proba(X)
    pending = [None] * X.n_rows

    def submit_share(first: int, batcher: MicroBatcher) -> None:
        for i in range(first, X.n_rows, clients):
            pending[i] = batcher.submit(*X.row(i))

    # A long coalescing window, so every response comes from a multi-row
    # batch; with several clients each batch interleaves their queries.
    with MicroBatcher(model, max_batch=16, max_delay_us=20_000.0, include_proba=True) as batcher:
        threads = [
            threading.Thread(target=submit_share, args=(first, batcher))
            for first in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        responses = [p.result(timeout=10.0) for p in pending]
    for i, response in enumerate(responses):
        assert response["margin"] == pytest.approx(expected[i], abs=1e-12)
        assert response["prediction"] == predictions[i]
        assert response["proba"] == pytest.approx(probas[i], abs=1e-12)
        assert response["model_version"] == model.version
    stats = batcher.stats()
    assert stats["submitted"] == stats["answered"] == X.n_rows
    assert stats["largest_batch"] <= 16
    assert stats["mean_batch"] > 1.0


def test_requests_actually_coalesce(served):
    X, model = served
    # A generous coalescing window: queries submitted while the scoring
    # thread is busy must be scored together, not one kernel call each.
    with MicroBatcher(model, max_batch=64, max_delay_us=20_000.0) as batcher:
        pending = [batcher.submit(*X.row(i % X.n_rows)) for i in range(50)]
        for p in pending:
            p.result(timeout=10.0)
        stats = batcher.stats()
    assert stats["batches"] < 50  # strictly fewer kernel calls than queries
    assert stats["largest_batch"] > 1
    assert stats["mean_batch"] > 1.0


def test_include_proba_attaches_probabilities(served):
    X, model = served
    with MicroBatcher(model, include_proba=True) as batcher:
        response = batcher.score(*X.row(2))
    assert 0.0 <= response["proba"] <= 1.0

    hinge = ScoringModel(
        np.asarray(model.weights), make_objective("hinge")
    )
    with MicroBatcher(hinge, include_proba=True) as batcher:
        response = batcher.score(*X.row(2))
    assert "proba" not in response  # hinge has no probabilistic interpretation


def test_submit_rejects_out_of_range_queries(served):
    X, model = served
    with MicroBatcher(model) as batcher:
        with pytest.raises(ValueError, match="out of range"):
            batcher.submit([model.n_features], [1.0])
        with pytest.raises(ValueError, match="out of range"):
            batcher.submit([2**63], [1.0])  # past int64, not an OverflowError
        with pytest.raises(ValueError, match="must be integers"):
            batcher.submit([1.7, 2.2], [1.0, 1.0])  # not features 1 and 2
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                batcher.submit([1], [bad])
        assert batcher.stats()["submitted"] == 0  # nothing bad was queued
    # A `repro serve` row query is checked where it is parsed: not row 2.
    with pytest.raises(ValueError, match="integer"):
        _parse_query('{"row": 2.5}', X)


class _GatedModel(ScoringModel):
    """Scores each batch once ``gate`` opens, raising the queued ``errors`` first."""

    def __init__(self, weights, errors=()):
        super().__init__(weights, make_objective("logistic_l1"))
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.errors = list(errors)

    def decision_function_gathered(self, idx, val, lengths):
        self.entered.set()
        self.gate.wait(10.0)
        if self.errors:
            raise self.errors.pop(0)
        return super().decision_function_gathered(idx, val, lengths)


def _first_batch_then_queue(batcher, gated, X, queued):
    """Submit row 0, wait until it is being scored alone, then queue more rows."""
    first = batcher.submit(*X.row(0))
    assert gated.entered.wait(10.0)
    return first, [batcher.submit(*X.row(i)) for i in range(1, 1 + queued)]


def test_result_times_out_while_its_batch_is_unanswered(served):
    X, model = served
    gated = _GatedModel(model.weights)
    batcher = MicroBatcher(gated)
    try:
        pending = batcher.submit(*X.row(0))
        with pytest.raises(TimeoutError):
            pending.result(timeout=0.05)
        assert not pending.done() and pending.latency is None
    finally:
        gated.gate.set()
        batcher.close()
    assert pending.result(timeout=0.0)["margin"] == pytest.approx(model.score_row(*X.row(0)))


def test_failed_batch_fails_only_its_own_requests(served):
    X, model = served
    gated = _GatedModel(model.weights, errors=[RuntimeError("scoring failed")])
    batcher = MicroBatcher(gated)
    try:
        first, queued = _first_batch_then_queue(batcher, gated, X, 3)
        gated.gate.set()
        with pytest.raises(RuntimeError, match="scoring failed"):
            first.result(timeout=10.0)
        for i, pending in enumerate(queued, start=1):
            response = pending.result(timeout=10.0)
            assert response["margin"] == pytest.approx(model.score_row(*X.row(i)), abs=1e-12)
    finally:
        gated.gate.set()
        batcher.close()
    assert first.done() and first.latency >= 0.0
    stats = batcher.stats()
    assert (stats["answered"], stats["batches"]) == (3, 1)


def test_one_batch_shares_one_completion_stamp(served):
    X, model = served
    gated = _GatedModel(model.weights)
    batcher = MicroBatcher(gated, max_batch=64)
    try:
        first, queued = _first_batch_then_queue(batcher, gated, X, 5)
        gated.gate.set()
        for pending in [first] + queued:
            pending.result(timeout=10.0)
    finally:
        gated.gate.set()
        batcher.close()
    assert batcher.stats()["batches"] == 2
    assert len({pending.completed_at for pending in queued}) == 1
    assert all(p.completed_at >= p.submitted_at for p in [first] + queued)
    assert first.completed_at <= queued[0].completed_at


def test_normalise_query_checks_every_integer_dtype_without_copies():
    idx = np.array([0, 3, 7], dtype=np.int32)
    val = np.array([1.0, -2.0, 0.5])
    got_idx, got_val = _normalise_query(idx, val, n_features=200_000)
    assert np.shares_memory(got_idx, idx) and np.shares_memory(got_val, val)
    for dtype in (np.int64, np.uint16):
        got_idx, got_val = _normalise_query(idx.astype(dtype), [1, -2, 3], n_features=8)
        assert got_idx.dtype == np.int32 and got_val.dtype == np.float64
        np.testing.assert_array_equal(got_idx, idx)
        np.testing.assert_array_equal(got_val, [1.0, -2.0, 3.0])
    # Viewed as unsigned, int8/int16 -1 is 255/65535: a valid feature of a
    # 200k-feature model, which astype(int32) would turn back into -1.
    for dtype in (np.int8, np.int16):
        for bad in (-1, np.iinfo(dtype).min):
            with pytest.raises(ValueError, match="out of range"):
                _normalise_query(np.array([1, bad], dtype=dtype), [1.0, 1.0], n_features=200_000)
        largest = np.iinfo(dtype).max
        assert _normalise_query(np.array([largest], dtype=dtype), [1.0], 200_000)[0][0] == largest


def test_submit_after_close_raises(served):
    X, model = served
    batcher = MicroBatcher(model)
    batcher.close()
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit(*X.row(0))


def test_close_drains_outstanding_queries(served):
    X, model = served
    batcher = MicroBatcher(model, max_batch=4)
    pending = [batcher.submit(*X.row(i % X.n_rows)) for i in range(120)]
    batcher.close()  # must answer everything already enqueued
    assert all(p.done() for p in pending)
    assert batcher.stats()["answered"] == 120


def test_concurrent_clients_all_get_correct_answers(served):
    X, model = served
    expected = model.decision_function(X)
    errors = []

    def client(seed: int, batcher: MicroBatcher) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(40):
            i = int(rng.integers(X.n_rows))
            response = batcher.score(*X.row(i), timeout=10.0)
            if abs(response["margin"] - expected[i]) > 1e-9:
                errors.append((i, response["margin"], expected[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many thread switches inside each update
    try:
        with MicroBatcher(model, max_batch=8) as batcher:
            threads = [
                threading.Thread(target=client, args=(seed, batcher)) for seed in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    stats = batcher.stats()  # no counter update lost between clients and scorer
    assert stats["submitted"] == stats["answered"] == 6 * 40


def test_invalid_construction():
    model = ScoringModel(np.zeros(3), make_objective("logistic_l1"))
    with pytest.raises(ValueError, match="max_batch"):
        MicroBatcher(model, max_batch=0)
