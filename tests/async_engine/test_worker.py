"""Tests for the simulated worker."""

import numpy as np
import pytest

from repro.async_engine.worker import SimulatedWorker, build_workers
from repro.core.is_asgd import ISASGDSolver
from repro.core.partition import WorkerShard, partition_dataset
from repro.core.sampler import AliasSampler, SampleSequence
from repro.solvers.is_sgd import ISSGDSolver


@pytest.fixture()
def shard():
    L = np.array([1.0, 2.0, 3.0, 4.0])
    return WorkerShard(
        worker_id=0,
        row_indices=np.array([10, 11, 12, 13]),
        lipschitz=L,
        probabilities=L / L.sum(),
    )


@pytest.fixture()
def worker(shard):
    seq = SampleSequence.generate(shard.probabilities, 20, seed=0)
    return SimulatedWorker(shard=shard, sequence=seq, seed=0)


class TestNextSamples:
    def test_returns_global_rows(self, worker, shard):
        global_rows, local, weights = worker.next_samples(5)
        assert np.isin(global_rows, shard.row_indices).all()
        np.testing.assert_array_equal(global_rows, shard.row_indices[local])
        assert ((local >= 0) & (local < shard.size)).all()
        assert (weights > 0.0).all()

    def test_follows_the_sequence_across_calls(self, worker):
        _, first, _ = worker.next_samples(7)
        _, rest, _ = worker.next_samples(13)
        np.testing.assert_array_equal(np.concatenate([first, rest]), worker.sequence.indices)

    def test_reweighting_is_inverse_np(self, worker, shard):
        # weight for local sample i must be 1 / (n_a * p_i) (before clipping).
        _, local, weights = worker.next_samples(20)
        expected = 1.0 / (shard.size * shard.probabilities[local])
        np.testing.assert_allclose(weights, np.minimum(expected, worker.step_clip))

    def test_exhaustion_raises(self, worker):
        worker.next_samples(worker.iterations_per_epoch)
        assert worker.next_samples(0)[0].size == 0
        with pytest.raises(RuntimeError):
            worker.next_samples(1)

    def test_remaining_iterations(self, worker):
        assert worker.remaining_iterations() == 20
        worker.next_samples(3)
        assert worker.remaining_iterations() == 17


class TestStartEpoch:
    def test_reshuffle_preserves_multiset(self, worker):
        before = sorted(worker.sequence.indices.tolist())
        worker.start_epoch(reshuffle=True)
        after = sorted(worker.sequence.indices.tolist())
        assert before == after
        assert worker.remaining_iterations() == worker.iterations_per_epoch

    def test_regenerate_draws_new_sequence(self, worker):
        before = worker.sequence.indices.copy()
        worker.start_epoch(regenerate=True)
        assert not np.array_equal(before, worker.sequence.indices)

    def test_empty_sequence_rejected(self, shard):
        with pytest.raises(ValueError):
            SimulatedWorker(
                shard=shard,
                sequence=SampleSequence(indices=np.array([], dtype=np.int64),
                                        probabilities=shard.probabilities),
            )


class TestBuildWorkers:
    def test_one_worker_per_shard(self, heavy_tail_lipschitz):
        partition = partition_dataset(
            np.arange(heavy_tail_lipschitz.size), heavy_tail_lipschitz, num_workers=5
        )
        workers = build_workers(partition, 30, seed=0)
        assert len(workers) == 5
        assert all(w.iterations_per_epoch == 30 for w in workers)

    def test_uniform_mode_has_unit_weights(self, heavy_tail_lipschitz):
        partition = partition_dataset(
            np.arange(heavy_tail_lipschitz.size), heavy_tail_lipschitz, num_workers=3
        )
        workers = build_workers(partition, 10, seed=0, importance_sampling=False)
        for w in workers:
            np.testing.assert_allclose(w.next_samples(3)[2], 1.0)

    def test_importance_mode_weights_vary(self, heavy_tail_lipschitz):
        partition = partition_dataset(
            np.arange(heavy_tail_lipschitz.size), heavy_tail_lipschitz, num_workers=3
        )
        workers = build_workers(partition, 50, seed=0, importance_sampling=True)
        weights = np.round(workers[0].next_samples(30)[2], 6)
        assert np.unique(weights).size > 1


class TestOneAliasTablePerWorker:
    """Regenerated epochs draw from the table built with the worker."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        built = []
        original = AliasSampler._build

        def counting_build(sampler, p):
            built.append(sampler.n)
            original(sampler, p)

        monkeypatch.setattr(AliasSampler, "_build", counting_build)
        return built

    def test_three_regenerated_epochs_reuse_each_workers_table(self, builds):
        L = np.linspace(1.0, 4.0, 40)
        workers = build_workers(partition_dataset(np.arange(40), L, 4), 25, seed=3)
        drawn = []
        for worker in workers:
            for _ in range(3):
                worker.start_epoch(regenerate=True)
                drawn.append(worker.sequence.indices.copy())
        assert len(builds) == len(workers) == 4
        for k, worker in enumerate(workers):
            seeds = np.random.default_rng(worker.seed)  # start_epoch's seed stream
            for epoch in range(3):
                expected = SampleSequence.generate(
                    worker.shard.probabilities, 25, seed=int(seeds.integers(0, 2**31 - 1))
                )
                assert drawn[3 * k + epoch].tobytes() == expected.indices.tobytes()

    def test_a_three_epoch_regenerate_fit_builds_one_table_per_worker(self, small_problem, builds):
        ISASGDSolver(step_size=0.1, epochs=3, num_workers=4, seed=2,
                     async_mode="batched").fit(small_problem)
        assert len(builds) == 4

    def test_is_sgd_builds_one_table_per_fit(self, small_problem, builds):
        ISSGDSolver(step_size=0.1, epochs=3, seed=2).fit(small_problem)
        assert builds == [small_problem.n_samples]
