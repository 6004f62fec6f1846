"""Checkpoint codec, store, and resume round-trip tests.

The strongest guarantees in this suite are *bit-identity* ones: the array
codec is exact, a checkpoint restored at another fleet size restores the
weights exactly, and — because the sampler stream is derived from
``(seed_root, worker_id, epoch)`` alone — a single-worker run resumed from
a mid-run checkpoint replays the remaining epochs byte-identically to the
uninterrupted run (weights, trace and counters all equal).
"""

import json
import multiprocessing as mp
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.async_engine.events import EpochEvent, ExecutionTrace
from repro.cluster import CHECKPOINT_FORMAT_VERSION, CheckpointStore, ClusterDriver
from repro.cluster.checkpoint import ClusterCheckpoint
from repro.core.balancing import random_order
from repro.core.partition import partition_dataset
from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import L2Regularizer
from repro.rules import available_rules
from repro.solvers.base import Problem
from repro.utils.arrays import decode_array, encode_array

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)

EPOCHS = 4
HALF = 2

#: A store written by release 2.1.0: 1 worker, ``sgd``, epoch 2 of 4 on the
#: hand-built matrix of :class:`TestPinnedIdentity`.
STORE_2_1_0 = Path(__file__).parent / "data" / "store-2.1.0"


@pytest.fixture(scope="module")
def ckpt_problem() -> Problem:
    spec = SyntheticSpec(
        n_samples=300, n_features=80, nnz_per_sample=6.0, label_noise=0.02, name="ckpt_test"
    )
    X, y, _ = make_sparse_classification(spec, seed=11)
    objective = LogisticObjective(regularizer=L2Regularizer(1e-4))
    return Problem(X=X, y=y, objective=objective, name=spec.name)


def _partition(problem, workers):
    L = problem.lipschitz_constants()
    order = random_order(problem.n_samples, seed=0)
    return partition_dataset(order, L, workers, scheme="uniform")


def _driver(problem, workers, store, **kwargs):
    defaults = dict(step_size=0.15, seed=9, checkpoint_store=store)
    defaults.update(kwargs)
    return ClusterDriver(
        problem.X, problem.y, problem.objective, _partition(problem, workers), **defaults
    )


class TestArrayCodec:
    @pytest.mark.parametrize("dtype", ["float64", "int64", "int32", "float32"])
    def test_round_trip_is_bit_exact(self, dtype):
        rng = np.random.default_rng(0)
        if np.issubdtype(np.dtype(dtype), np.integer):
            info = np.iinfo(dtype)
            arr = rng.integers(info.min, info.max, size=257, dtype=dtype)
        else:
            arr = (rng.standard_normal(257) * 1e30).astype(dtype)
        out = decode_array(encode_array(arr))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert arr.tobytes() == out.tobytes()

    def test_special_values_survive(self):
        arr = np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324])
        out = decode_array(encode_array(arr))
        assert arr.tobytes() == out.tobytes()

    def test_2d_shape_preserved(self):
        arr = np.arange(12, dtype=np.int64).reshape(3, 4)
        out = decode_array(encode_array(arr))
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(arr, out)


class TestCheckpointStore:
    def _checkpoint(self, identity, epoch, dim=16):
        rng = np.random.default_rng(epoch)
        return ClusterCheckpoint(
            identity=identity,
            epoch=epoch,
            num_workers=2,
            weights=rng.standard_normal(dim),
            rule="sgd",
            sampler={"seed_root": 7, "next_epoch_seeds": [1, 2]},
        )

    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        identity = {"kind": "cluster_checkpoint", "run_id": "a"}
        ckpt = self._checkpoint(identity, 3)
        path = store.save(ckpt)
        assert path.exists()
        loaded = store.load(identity, 3)
        assert loaded.epoch == 3
        assert loaded.identity == identity
        assert ckpt.weights.tobytes() == loaded.weights.tobytes()
        assert loaded.sampler == ckpt.sampler

    def test_latest_and_max_epoch(self, tmp_path):
        store = CheckpointStore(tmp_path)
        identity = {"kind": "cluster_checkpoint", "run_id": "b"}
        for epoch in (1, 2, 5):
            store.save(self._checkpoint(identity, epoch))
        assert store.epochs(identity) == [1, 2, 5]
        assert store.latest(identity).epoch == 5
        assert store.latest(identity, max_epoch=4).epoch == 2
        assert store.latest(identity, max_epoch=0) is None

    def test_identities_do_not_collide(self, tmp_path):
        store = CheckpointStore(tmp_path)
        a = {"kind": "cluster_checkpoint", "run_id": "a"}
        b = {"kind": "cluster_checkpoint", "run_id": "b"}
        store.save(self._checkpoint(a, 1))
        assert store.latest(b) is None
        with pytest.raises(ValueError, match="missing or corrupt"):
            store.load(b, 1)

    def test_corrupt_file_is_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        identity = {"kind": "cluster_checkpoint", "run_id": "c"}
        path = store.save(self._checkpoint(identity, 1))
        path.write_text("{not json")
        with pytest.raises(ValueError, match="missing or corrupt"):
            store.load(identity, 1)

    def test_format_version_is_enforced(self, tmp_path):
        import json

        store = CheckpointStore(tmp_path)
        identity = {"kind": "cluster_checkpoint", "run_id": "d"}
        path = store.save(self._checkpoint(identity, 1))
        entry = json.loads(path.read_text())
        entry["format_version"] = 999
        path.write_text(json.dumps(entry))
        with pytest.raises(ValueError, match="format_version"):
            store.load(identity, 1)


    def test_missing_payload_key_is_a_value_error(self, tmp_path):
        import json

        store = CheckpointStore(tmp_path)
        identity = {"kind": "cluster_checkpoint", "run_id": "e"}
        path = store.save(self._checkpoint(identity, 1))
        entry = json.loads(path.read_text())
        del entry["checkpoint"]["weights"]
        path.write_text(json.dumps(entry))
        with pytest.raises(ValueError, match="missing the key 'weights'"):
            store.load(identity, 1)


class TestPinnedIdentity:
    """Stored checkpoints are found by their identity digest, so the
    identity of every built-in rule is pinned to a literal digest: a
    refactoring that moves it would orphan every stored checkpoint."""

    @pytest.mark.parametrize("rule,prefix", [
        ("is_sgd", "8d47764af953ac13805dd709bb94608a5447d5fc"),
        ("sgd", "a14acf82560f624229cfef7064e2953561ba990d"),
        ("svrg", "c5fdca9786cf44f3426751bdfd21435e4e6a36fa"),
        ("svrg_skip_dense", "8512e05e7a3a3df2e7a54f4daf817d7d808821c5"),
    ])
    def test_identity_prefix(self, rule, prefix):
        from repro.sparse.csr import CSRMatrix

        X = CSRMatrix.from_rows([((k % 3, 3 + k % 4), (1.0, 0.5)) for k in range(8)], n_cols=7)
        y = np.asarray([1.0, -1.0] * 4)
        obj = LogisticObjective()
        part = partition_dataset(np.arange(8), obj.lipschitz_constants(X, y), 2,
                                 scheme="uniform")
        driver = ClusterDriver(X, y, obj, part, step_size=0.15, seed=9, rule=rule)
        identity = driver.checkpoint_identity()
        assert identity["skip_dense_term"] is (rule == "svrg_skip_dense")
        assert CheckpointStore.identity_prefix(identity) == prefix


class TestRunStateIsTheCut:
    def test_copy_makes_new_lists_over_the_same_values(self):
        """Folding an epoch into a copy leaves the copied cut as it was."""
        event = EpochEvent(epoch=0)
        cut = ClusterCheckpoint(
            identity={}, epoch=1, num_workers=1, weights=np.ones(3), rule="sgd",
            trace=ExecutionTrace(epochs=[event]), epoch_seconds=[0.5],
        )
        copy = cut.copy()
        copy.trace.add_epoch(EpochEvent(epoch=1))
        copy.epoch_seconds.append(0.25)
        assert [e.epoch for e in cut.trace.epochs] == [0]
        assert cut.epoch_seconds == [0.5]
        assert copy.trace.epochs[0] is event
        assert copy.weights is cut.weights

    def test_run_leaves_no_view_into_the_arena(self, ckpt_problem):
        """Closing the arena at the end of a run unmaps its segments even
        while a NumPy view still points into one, so the cut, and the
        result read from it, must own what they take from the arena."""
        result = _driver(ckpt_problem, 2, None, rule="svrg").run(HALF)
        owns_its_weights = result.weights.flags.owndata  # a view would dangle
        assert owns_its_weights

    def test_result_is_the_last_stored_cut(self, ckpt_problem, tmp_path):
        """The run's result is read from its last cut, which the store
        saves: both report the same weights and measured history."""
        store = CheckpointStore(tmp_path)
        driver = _driver(ckpt_problem, 2, store)
        result = driver.run(HALF)
        cut = store.load(driver.checkpoint_identity(), HALF)
        assert cut.weights.tobytes() == result.weights.tobytes()
        assert cut.trace.to_dict() == result.trace.to_dict()
        assert cut.epoch_seconds == result.epoch_seconds
        assert cut.epoch_mean_delay == result.epoch_mean_delay
        assert cut.epoch_occupancy_skew == result.epoch_occupancy_skew
        assert cut.epoch_steals == result.epoch_steals
        totals = cut.shard_write_totals.astype(np.float64)
        assert (totals / totals.sum()).tobytes() == result.shard_write_fractions.tobytes()


class TestStoreOf210:
    """Checkpoints written before they stopped carrying cumulative counter
    totals (release 2.1.0) still resume, bit-identically on one worker.

    The drivers run the ``vectorized`` kernel, the one that wrote the
    fixture: native ``scatter_add`` adds each entry in turn where
    ``vectorized`` sums a column's deltas first, so a resume on another
    kernel may differ in the last bit.
    """

    @staticmethod
    def _driver(store):
        from repro.sparse.csr import CSRMatrix

        X = CSRMatrix.from_rows([((k % 3, 3 + k % 4), (1.0, 0.5)) for k in range(8)], n_cols=7)
        y = np.asarray([1.0, -1.0] * 4)
        obj = LogisticObjective()
        part = partition_dataset(np.arange(8), obj.lipschitz_constants(X, y), 1,
                                 scheme="uniform")
        return ClusterDriver(X, y, obj, part, step_size=0.15, seed=9, rule="sgd",
                             checkpoint_store=store, kernel_name="vectorized")

    def test_resumes_bit_identically(self, tmp_path):
        shutil.copytree(STORE_2_1_0, tmp_path / "store")
        store = CheckpointStore(tmp_path / "store")
        driver = self._driver(store)
        entry = json.loads(store.path_for(driver.checkpoint_identity(), HALF).read_text())
        assert entry["checkpoint"]["counters"] is not None
        stored = decode_array(entry["checkpoint"]["weights"])

        same = driver.run(HALF, resume=True)
        assert same.info["resumed_from_epoch"] == HALF
        assert same.weights.tobytes() == stored.tobytes()

        finished = self._driver(store).run(EPOCHS, resume=True)
        assert finished.info["resumed_from_epoch"] == HALF
        assert [e.epoch for e in finished.trace.epochs] == list(range(EPOCHS))
        uninterrupted = self._driver(None).run(EPOCHS)
        assert finished.weights.tobytes() == uninterrupted.weights.tobytes()


class TestResumeRoundTrip:
    """Mid-run snapshot -> restore parity for every rule."""

    @pytest.mark.parametrize("rule", available_rules())
    def test_single_worker_resume_is_bit_identical(self, ckpt_problem, tmp_path, rule):
        """One worker is deterministic, so resume must replay *exactly*."""
        store_a = CheckpointStore(tmp_path / "a")
        store_b = CheckpointStore(tmp_path / "b")

        full_weights, resumed_epochs = {}, []
        full = _driver(
            ckpt_problem, 1, store_a, rule=rule,
            epoch_callback=full_weights.__setitem__,
        ).run(EPOCHS)

        _driver(ckpt_problem, 1, store_b, rule=rule).run(HALF)
        resumed_driver = _driver(
            ckpt_problem, 1, store_b, rule=rule,
            epoch_callback=lambda epoch, w: resumed_epochs.append(epoch),
        )
        resumed = resumed_driver.run(EPOCHS, resume=True)

        assert resumed.info["resumed_from_epoch"] == HALF
        assert full.weights.tobytes() == resumed.weights.tobytes()
        assert full.trace.to_dict() == resumed.trace.to_dict()
        # The resumed run reports only the epochs it ran.
        assert resumed_epochs == list(range(HALF, EPOCHS))
        # The stored mid-run checkpoint equals the uninterrupted run's
        # epoch snapshot bit-for-bit.
        ckpt = store_b.load(resumed_driver.checkpoint_identity(), HALF)
        assert ckpt.weights.tobytes() == full_weights[HALF - 1].tobytes()
        # Sampler stream position: the seeds the resumed fleet used are
        # exactly the ones the checkpoint advertised.
        assert ckpt.sampler["next_epoch_seeds"] == [resumed_driver.epoch_seed(0, HALF)]

    def test_resume_skips_all_epochs_when_complete(self, ckpt_problem, tmp_path):
        store = CheckpointStore(tmp_path)
        first = _driver(ckpt_problem, 2, store).run(EPOCHS)
        again = _driver(ckpt_problem, 2, store).run(EPOCHS, resume=True)
        assert again.info["resumed_from_epoch"] == EPOCHS
        assert first.weights.tobytes() == again.weights.tobytes()
        assert len(again.trace.epochs) == EPOCHS

    def test_resume_requires_store(self, ckpt_problem):
        driver = _driver(ckpt_problem, 2, None)
        with pytest.raises(ValueError, match="requires a checkpoint_store"):
            driver.run(EPOCHS, resume=True)

    def test_resume_without_checkpoint_starts_fresh(self, ckpt_problem, tmp_path):
        store = CheckpointStore(tmp_path)
        result = _driver(ckpt_problem, 2, store).run(2, resume=True)
        assert result.info["resumed_from_epoch"] == 0
        assert len(result.trace.epochs) == 2

    def test_checkpoint_every_thins_persistence(self, ckpt_problem, tmp_path):
        store = CheckpointStore(tmp_path)
        driver = _driver(ckpt_problem, 2, store, checkpoint_every=3)
        driver.run(EPOCHS)
        # Epoch 3 (multiple of 3) and the final epoch are persisted.
        assert store.epochs(driver.checkpoint_identity()) == [3, EPOCHS]

    @pytest.mark.parametrize("epochs", [EPOCHS, 2 * EPOCHS])
    def test_in_memory_checkpoints_serialise_no_epoch_event(
        self, ckpt_problem, monkeypatch, epochs
    ):
        """The per-epoch capture shares the folded events instead of
        copying the trace through its dict form, so its work does not grow
        with the epoch count; only a store's save serialises events."""
        calls = []
        to_dict = EpochEvent.to_dict
        monkeypatch.setattr(
            EpochEvent, "to_dict", lambda event: calls.append(event.epoch) or to_dict(event)
        )
        result = _driver(ckpt_problem, 1, None).run(epochs)
        assert [e.epoch for e in result.trace.epochs] == list(range(epochs))
        assert calls == []


class TestElasticResume:
    """Membership changes across a resume: any fleet size picks it up."""

    @pytest.mark.parametrize("workers_before,workers_after", [(2, 3), (3, 2), (1, 4)])
    def test_resume_at_different_worker_count(
        self, ckpt_problem, tmp_path, workers_before, workers_after
    ):
        store = CheckpointStore(tmp_path)
        _driver(ckpt_problem, workers_before, store).run(HALF)
        resumed = _driver(ckpt_problem, workers_after, store).run(EPOCHS, resume=True)
        assert resumed.info["resumed_from_epoch"] == HALF
        assert resumed.info["num_workers"] == workers_after
        assert len(resumed.trace.epochs) == EPOCHS
        assert [e.epoch for e in resumed.trace.epochs] == list(range(EPOCHS))
        assert np.all(np.isfinite(resumed.weights))

    @pytest.mark.parametrize("rule", ["sgd", "svrg_skip_dense"])
    def test_resume_at_another_fleet_size_keeps_weights_bit_identical(
        self, ckpt_problem, tmp_path, rule
    ):
        """A checkpoint of 2 workers restored by 3: a zero-epoch resume
        returns the checkpointed weights byte for byte."""
        store = CheckpointStore(tmp_path)
        writer = _driver(ckpt_problem, 2, store, rule=rule, step_size=0.05)
        writer.run(HALF)
        ckpt = store.load(writer.checkpoint_identity(), HALF)
        resumed = _driver(ckpt_problem, 3, store, rule=rule, step_size=0.05).run(
            HALF, resume=True
        )
        assert resumed.info["resumed_from_epoch"] == HALF
        assert resumed.info["num_workers"] == 3
        assert resumed.weights.tobytes() == ckpt.weights.tobytes()

    def test_checkpoint_arrays_of_another_shape_are_rejected(self, ckpt_problem, tmp_path):
        """A short array would be broadcast over the arena: resume names it instead."""
        import json

        store = CheckpointStore(tmp_path)
        writer = _driver(ckpt_problem, 2, store, rule="sgd")
        writer.run(HALF)
        path = store.path_for(writer.checkpoint_identity(), HALF)
        entry = json.loads(path.read_text())
        entry["checkpoint"]["weights"] = encode_array(np.ones(1))
        path.write_text(json.dumps(entry))
        with pytest.raises(ValueError, match=re.escape("checkpoint array weights has shape (1,)")):
            _driver(ckpt_problem, 2, store, rule="sgd").run(EPOCHS, resume=True)

    @pytest.mark.parametrize("old_keys", [
        # Written while the cluster had a choice of parameter layouts.
        {"num_shards": 2, "shard_scheme": "range"},
        # Written while a rule (SAGA) kept shared state of its own.
        {"rule_state": {
            "saga_coefs": encode_array(np.ones(300)),
            "saga_avg": encode_array(np.ones(80)),
        }},
    ], ids=["layout", "rule_state"])
    def test_checkpoint_with_keys_of_older_versions_resumes(
        self, ckpt_problem, tmp_path, old_keys
    ):
        """Checkpoint files of older versions carry keys this version no
        longer writes or fills; they load and resume."""
        import json

        store = CheckpointStore(tmp_path)
        writer = _driver(ckpt_problem, 2, store)
        writer.run(HALF)
        path = store.path_for(writer.checkpoint_identity(), HALF)
        entry = json.loads(path.read_text())
        assert entry["format_version"] == CHECKPOINT_FORMAT_VERSION == 1
        # Readers of format 1 before 2.0.0 require this key.
        assert entry["checkpoint"]["rule_state"] == {}
        entry["checkpoint"].update(old_keys)
        path.write_text(json.dumps(entry))

        ckpt = store.load(writer.checkpoint_identity(), HALF)
        assert ckpt.epoch == HALF
        resumed = _driver(ckpt_problem, 3, store).run(HALF, resume=True)
        assert resumed.info["resumed_from_epoch"] == HALF
        assert resumed.weights.tobytes() == ckpt.weights.tobytes()
        finished = _driver(ckpt_problem, 3, store).run(EPOCHS, resume=True)
        assert [e.epoch for e in finished.trace.epochs] == list(range(EPOCHS))

    def test_checkpoint_with_every_epochs_weights_resumes(self, ckpt_problem, tmp_path):
        """Checkpoint files written while checkpoints held every completed
        epoch's weights carry them under ``epoch_weights``; the key is
        ignored, whatever its arrays' shapes."""
        import json

        store = CheckpointStore(tmp_path)
        writer = _driver(ckpt_problem, 2, store)
        writer.run(HALF)
        path = store.path_for(writer.checkpoint_identity(), HALF)
        entry = json.loads(path.read_text())
        weights = entry["checkpoint"]["weights"]
        entry["checkpoint"]["epoch_weights"] = [weights, encode_array(np.ones(1))]
        path.write_text(json.dumps(entry))

        ckpt = store.load(writer.checkpoint_identity(), HALF)
        assert "epoch_weights" not in ckpt.to_dict()
        reported = []
        finished = _driver(
            ckpt_problem, 2, store, epoch_callback=lambda epoch, w: reported.append(epoch)
        ).run(EPOCHS, resume=True)
        assert finished.info["resumed_from_epoch"] == HALF
        assert reported == list(range(HALF, EPOCHS))
        assert [e.epoch for e in finished.trace.epochs] == list(range(EPOCHS))
