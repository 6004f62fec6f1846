"""Hot-swap atomicity: swapping under load never mixes model versions.

The contract under test (``ModelRef`` + the batcher's pin-one-model-per-batch
rule): while a writer thread continuously swaps models, every concurrently
served response must (a) arrive — zero dropped requests — and (b) be exactly
the margin that the *one* model version named in the response would produce.
A torn read (new weights under an old version number, or a batch scored
half-and-half across a swap) shows up as a margin that matches no single
version.
"""

import threading
import time

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.experiments.store import ArtifactStore
from repro.metrics.convergence import ConvergenceCurve
from repro.metrics.tracing import RunRecord
from repro.objectives.registry import make_objective
from repro.serving import ArtifactWatcher, MicroBatcher, ModelRef, ScoringModel


@pytest.fixture(scope="module")
def swap_problem():
    spec = SyntheticSpec(
        n_samples=40,
        n_features=30,
        nnz_per_sample=5.0,
        feature_skew=1.0,
        norm_spread=0.5,
        label_noise=0.02,
        name="serving_swap_smoke",
    )
    X, _, _ = make_sparse_classification(spec, seed=29)
    rng = np.random.default_rng(3)
    # A pool of distinct models: distinct weights => distinct margins, so a
    # response can be attributed to exactly one of them.
    pool = [
        ScoringModel(rng.normal(size=spec.n_features), make_objective("logistic_l1"))
        for _ in range(4)
    ]
    expected = [model.decision_function(X) for model in pool]
    return X, pool, expected


def test_swap_assigns_monotonic_versions(swap_problem):
    _, pool, _ = swap_problem
    ref = ModelRef()
    with pytest.raises(LookupError):
        ref.get()
    assert ref.version == 0
    v1 = ref.swap(pool[0])
    v2 = ref.swap(pool[1])
    assert (v1, v2) == (1, 2)
    assert ref.get() is pool[1]
    assert ref.get().version == 2


def test_initial_publication_is_not_counted_as_swap(swap_problem):
    _, pool, _ = swap_problem
    ref = ModelRef(pool[0])
    assert ref.swaps == 0
    ref.swap(pool[1])
    assert ref.swaps == 1


def test_swap_rejects_a_model_of_another_width(swap_problem):
    # Queries are checked against the model live at submit time and scored
    # against the one live when their batch runs: a narrower model swapped
    # in between would be indexed past its weights.
    _, pool, _ = swap_problem
    ref = ModelRef(pool[0])
    narrow = ScoringModel(pool[1].weights[:10], make_objective("logistic_l1"))
    with pytest.raises(ValueError, match=r"10-feature.*30-feature"):
        ref.swap(narrow)
    assert ref.get() is pool[0]
    assert (ref.version, ref.swaps) == (1, 0)


def test_swap_under_sustained_load_never_mixes_versions(swap_problem):
    X, pool, expected = swap_problem
    ref = ModelRef(pool[0])
    # version -> index into the pool; the writer fills this map *before*
    # clients can observe the version (swap assigns it under the lock).
    version_to_model = {ref.get().version: 0}
    stop_writer = threading.Event()

    def writer() -> None:
        k = 0
        while not stop_writer.is_set():
            k = (k + 1) % len(pool)
            version = ref.swap(pool[k])
            version_to_model[version] = k
            time.sleep(0.0005)

    responses = []
    responses_lock = threading.Lock()
    client_errors = []

    def client(seed: int, batcher: MicroBatcher) -> None:
        rng = np.random.default_rng(seed)
        local = []
        try:
            for _ in range(150):
                i = int(rng.integers(X.n_rows))
                local.append((i, batcher.score(*X.row(i), timeout=30.0)))
        except Exception as exc:  # noqa: BLE001 - recorded and asserted below
            client_errors.append(exc)
        with responses_lock:
            responses.extend(local)

    writer_thread = threading.Thread(target=writer)
    writer_thread.start()
    try:
        with MicroBatcher(ref, max_batch=8, max_delay_us=100.0) as batcher:
            clients = [
                threading.Thread(target=client, args=(seed, batcher))
                for seed in range(5)
            ]
            for t in clients:
                t.start()
            for t in clients:
                t.join()
    finally:
        stop_writer.set()
        writer_thread.join()

    assert not client_errors
    assert len(responses) == 5 * 150  # zero dropped requests
    assert ref.swaps > 0  # the writer really did swap underneath the load
    seen_versions = set()
    for row, response in responses:
        version = response["model_version"]
        seen_versions.add(version)
        model_index = version_to_model[version]
        # The response must equal the margin of exactly the version it names.
        assert response["margin"] == pytest.approx(
            expected[model_index][row], abs=1e-12
        ), f"response inconsistent with model version {version}"
    # Sanity: the load actually spanned multiple published versions.
    assert len(seen_versions) > 1


def _record_with_weights(weights: np.ndarray) -> RunRecord:
    return RunRecord(
        dataset="swap_smoke",
        solver="sgd",
        num_workers=1,
        curve=ConvergenceCurve(label="swap_smoke"),
        info={"weights": [float(w) for w in weights]},
    )


IDENTITY = {
    "dataset": "swap_smoke",
    "solver": "sgd",
    "objective": "logistic_l1",
    "regularization": 1e-4,
    "epochs": 1,
    "seed": 0,
}


def test_watcher_swaps_on_rewrite_of_same_key(tmp_path, swap_problem):
    X, pool, _ = swap_problem
    store = ArtifactStore(tmp_path)
    store.save("run-a", _record_with_weights(pool[0].weights), IDENTITY)

    ref = ModelRef()
    watcher = ArtifactWatcher(store, ref, key="run-a", poll_interval=0.01)
    first = watcher.load_initial()
    np.testing.assert_array_equal(first.weights, pool[0].weights)
    assert watcher.poll_once() is None  # unchanged artifact: no spurious swap

    time.sleep(0.01)  # ensure a distinct mtime for the rewrite
    store.save("run-a", _record_with_weights(pool[1].weights), IDENTITY)
    second = watcher.poll_once()
    assert second is not None
    np.testing.assert_array_equal(second.weights, pool[1].weights)
    assert ref.get() is second
    assert second.version == first.version + 1


def test_watcher_follows_newest_matching_identity(tmp_path, swap_problem):
    _, pool, _ = swap_problem
    store = ArtifactStore(tmp_path)
    store.save("run-a", _record_with_weights(pool[0].weights), IDENTITY)

    ref = ModelRef()
    watcher = ArtifactWatcher(
        store, ref, dataset="swap_smoke", solver="sgd", poll_interval=0.01
    )
    watcher.load_initial()

    # A fresh run of the same identity lands under a new key: follow it.
    time.sleep(0.01)
    store.save("run-b", _record_with_weights(pool[2].weights), IDENTITY)
    swapped = watcher.poll_once()
    assert swapped is not None
    np.testing.assert_array_equal(swapped.weights, pool[2].weights)

    # An artifact of a *different* identity must be ignored.
    time.sleep(0.01)
    other = dict(IDENTITY, dataset="unrelated")
    store.save("run-c", _record_with_weights(pool[3].weights), other)
    assert watcher.poll_once() is None
    np.testing.assert_array_equal(ref.get().weights, pool[2].weights)


def test_watcher_ignores_unservable_artifacts(tmp_path, swap_problem):
    _, pool, _ = swap_problem
    store = ArtifactStore(tmp_path)
    store.save("run-a", _record_with_weights(pool[0].weights), IDENTITY)
    ref = ModelRef()
    watcher = ArtifactWatcher(store, ref, key="run-a", poll_interval=0.01)
    watcher.load_initial()

    # Rewrite without weights (a pre-serving artifact): keep the old model.
    time.sleep(0.01)
    store.save(
        "run-a",
        RunRecord(
            dataset="swap_smoke",
            solver="sgd",
            num_workers=1,
            curve=ConvergenceCurve(label="swap_smoke"),
        ),
        IDENTITY,
    )
    assert watcher.poll_once() is None
    np.testing.assert_array_equal(ref.get().weights, pool[0].weights)
    # ... and the bad artifact is not retried every poll.
    assert watcher.poll_once() is None


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_watcher_keeps_serving_when_newer_artifact_diverged(tmp_path, swap_problem, bad):
    _, pool, _ = swap_problem
    store = ArtifactStore(tmp_path)
    store.save("run-a", _record_with_weights(pool[0].weights), IDENTITY)
    ref = ModelRef()
    watcher = ArtifactWatcher(store, ref, key="run-a", poll_interval=0.01)
    first = watcher.load_initial()
    swaps = ref.swaps

    time.sleep(0.01)
    diverged = pool[1].weights.copy()
    diverged[3] = bad
    store.save("run-a", _record_with_weights(diverged), IDENTITY)
    assert watcher.poll_once() is None
    assert ref.get() is first
    assert ref.swaps == swaps


def test_watcher_keeps_serving_when_newer_artifact_is_narrower(tmp_path, swap_problem):
    X, pool, expected = swap_problem
    store = ArtifactStore(tmp_path)
    store.save("run-a", _record_with_weights(pool[0].weights), IDENTITY)
    ref = ModelRef()
    watcher = ArtifactWatcher(store, ref, solver="sgd", poll_interval=0.01)
    first = watcher.load_initial()

    # A newer run of the followed solver, trained on a narrower dataset.
    time.sleep(0.01)
    narrow = pool[1].weights[:10]
    store.save("run-b", _record_with_weights(narrow), dict(IDENTITY, dataset="narrow"))
    assert watcher.poll_once() is None
    assert watcher.poll_once() is None  # remembered, not retried every poll
    assert ref.get() is first

    # Rows with features beyond the narrow width still score on the old model.
    rows = [i for i in range(X.n_rows) if X.row(i)[0].max() >= narrow.size]
    assert rows
    with MicroBatcher(ref) as batcher:
        responses = [batcher.score(*X.row(i), timeout=30.0) for i in rows]
    for i, response in zip(rows, responses):
        assert response["model_version"] == first.version
        assert response["margin"] == pytest.approx(expected[0][i], abs=1e-12)


def test_background_watcher_thread_swaps_under_load(tmp_path, swap_problem):
    X, pool, expected = swap_problem
    store = ArtifactStore(tmp_path)
    store.save("run-a", _record_with_weights(pool[0].weights), IDENTITY)
    ref = ModelRef()
    with ArtifactWatcher(store, ref, key="run-a", poll_interval=0.005) as watcher:
        watcher.load_initial()
        with MicroBatcher(ref, max_batch=8) as batcher:
            pending = []
            for t in range(200):
                if t == 100:
                    time.sleep(0.01)
                    store.save("run-a", _record_with_weights(pool[1].weights), IDENTITY)
                pending.append(batcher.submit(*X.row(t % X.n_rows)))
            responses = [p.result(timeout=30.0) for p in pending]
            deadline = time.perf_counter() + 5.0
            while ref.swaps < 1 and time.perf_counter() < deadline:
                time.sleep(0.005)
    assert ref.swaps >= 1
    assert len(responses) == 200
    for t, response in enumerate(responses):
        row = t % X.n_rows
        model_index = 0 if response["model_version"] == 1 else 1
        assert response["margin"] == pytest.approx(
            expected[model_index][row], abs=1e-12
        )


def test_load_initial_returns_the_served_model_when_a_load_outlasts_a_poll(
    tmp_path, swap_problem, monkeypatch
):
    # The poll thread starts before load_initial(), and a model load here
    # takes six poll intervals: the thread's first poll and load_initial()
    # must not both load and swap in the same artifact.
    _, pool, _ = swap_problem
    store = ArtifactStore(tmp_path)
    store.save("run-a", _record_with_weights(pool[0].weights), IDENTITY)
    load = ScoringModel.from_artifact

    def slow_load(*args, **kwargs):
        time.sleep(0.3)
        return load(*args, **kwargs)

    monkeypatch.setattr(ScoringModel, "from_artifact", slow_load)
    ref = ModelRef()
    with ArtifactWatcher(store, ref, key="run-a", poll_interval=0.05) as watcher:
        model = watcher.load_initial()
    assert ref.swaps == 1
    assert ref.get() is model
