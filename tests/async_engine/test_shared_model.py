"""Tests for the shared model with stale reads."""

import numpy as np
import pytest

from repro.async_engine.shared_model import SharedModel


class TestBasicReadsWrites:
    def test_initial_state_zero(self):
        m = SharedModel(5)
        np.testing.assert_allclose(m.snapshot(), 0.0)
        assert m.version == 0

    def test_initial_vector(self):
        init = np.arange(4, dtype=float)
        m = SharedModel(4, initial=init)
        np.testing.assert_allclose(m.snapshot(), init)
        init[0] = 99  # must not alias
        assert m.snapshot()[0] == 0.0

    def test_apply_update(self):
        m = SharedModel(4)
        v = m.apply_update(np.array([1, 3]), np.array([2.0, -1.0]))
        assert v == 1
        np.testing.assert_allclose(m.snapshot(), [0, 2.0, 0, -1.0])

    def test_apply_update_duplicate_indices(self):
        m = SharedModel(3)
        m.apply_update(np.array([0, 0]), np.array([1.0, 2.0]))
        assert m.snapshot()[0] == pytest.approx(3.0)

    def test_dense_update(self):
        m = SharedModel(3)
        m.apply_dense_update(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(m.snapshot(), [1.0, 2.0, 3.0])

    def test_dense_update_wrong_shape(self):
        with pytest.raises(ValueError):
            SharedModel(3).apply_dense_update(np.zeros(2))

    def test_mismatched_update_shapes(self):
        with pytest.raises(ValueError):
            SharedModel(3).apply_update(np.array([0, 1]), np.array([1.0]))

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            SharedModel(0)


class TestStaleReads:
    def test_zero_delay_is_fresh(self):
        m = SharedModel(4)
        m.apply_update(np.array([0]), np.array([1.0]))
        values, conflicts = m.read_stale(np.array([0]), delay=0)
        assert values[0] == pytest.approx(1.0)
        assert conflicts == 0

    def test_stale_read_undoes_recent_updates(self):
        m = SharedModel(4)
        m.apply_update(np.array([0]), np.array([1.0]), worker_id=1)
        m.apply_update(np.array([0]), np.array([2.0]), worker_id=2)
        # Reading with delay 1 should miss the most recent (+2.0) update.
        values, conflicts = m.read_stale(np.array([0]), delay=1)
        assert values[0] == pytest.approx(1.0)
        assert conflicts == 1
        # Delay 2 misses both.
        values, conflicts = m.read_stale(np.array([0]), delay=2)
        assert values[0] == pytest.approx(0.0)
        assert conflicts == 2

    def test_own_writes_always_visible(self):
        m = SharedModel(4)
        m.apply_update(np.array([0]), np.array([5.0]), worker_id=3)
        values, conflicts = m.read_stale(np.array([0]), delay=5, writer_id=3)
        assert values[0] == pytest.approx(5.0)
        assert conflicts == 0

    def test_conflicts_only_counted_on_overlap(self):
        m = SharedModel(4)
        m.apply_update(np.array([2]), np.array([1.0]), worker_id=1)
        values, conflicts = m.read_stale(np.array([0]), delay=1, writer_id=2)
        assert conflicts == 0
        assert values[0] == 0.0

    def test_delay_larger_than_history_is_clamped(self):
        m = SharedModel(2, history=2)
        for _ in range(5):
            m.apply_update(np.array([0]), np.array([1.0]))
        values, _ = m.read_stale(np.array([0]), delay=100)
        # Only the last two updates can be undone.
        assert values[0] == pytest.approx(3.0)

    def test_read_returns_its_conflicts(self):
        m = SharedModel(3)
        m.apply_update(np.array([0]), np.array([1.0]), worker_id=0)
        assert m.read_stale(np.array([0]), delay=1, writer_id=1)[1] == 1
        assert m.read_stale(np.array([0]), delay=1, writer_id=0)[1] == 0  # own write
        assert m.read_stale(np.array([1]), delay=1, writer_id=1)[1] == 0  # other coordinate


class TestHistoryOverflow:
    """Regression suite: truncated stale-read reconstructions are counted.

    A stale read whose requested delay exceeds the bounded update history
    used to reconstruct from a silently truncated window; the clamp is now
    explicit and counted in ``history_overflow`` (and surfaced on the
    simulator trace as ``EpochEvent.history_overflows``).
    """

    def test_short_run_is_not_overflow(self):
        # Fewer updates than the requested delay, but nothing was evicted:
        # the clamped reconstruction is exact (back to the initial state).
        m = SharedModel(3, history=8)
        m.apply_update(np.array([0]), np.array([1.0]))
        values, _ = m.read_stale(np.array([0]), delay=5)
        assert values[0] == pytest.approx(0.0)
        assert m.history_overflow == 0

    def test_evicted_records_count_as_overflow(self):
        m = SharedModel(3, history=2)
        for _ in range(5):
            m.apply_update(np.array([0]), np.array([1.0]))
        values, _ = m.read_stale(np.array([0]), delay=4)
        # Only the retained 2 of the requested 4 updates can be undone.
        assert values[0] == pytest.approx(3.0)
        assert m.history_overflow == 1
        # A delay within the retained window does not count.
        m.read_stale(np.array([0]), delay=2)
        assert m.history_overflow == 1

    def test_empty_support_read_does_not_count(self):
        m = SharedModel(3, history=1)
        for _ in range(3):
            m.apply_update(np.array([0]), np.array([1.0]))
        m.read_stale(np.array([], dtype=np.int64), delay=3)
        assert m.history_overflow == 0

    def test_simulator_surfaces_overflow_on_trace(self):
        from repro.async_engine.simulator import AsyncSimulator
        from repro.async_engine.staleness import ConstantDelay
        from repro.async_engine.worker import build_workers
        from repro.core.partition import partition_dataset
        from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
        from repro.objectives.logistic import LogisticObjective
        from repro.rules.sgd import SGDRule

        spec = SyntheticSpec(n_samples=120, n_features=40, nnz_per_sample=5.0, name="t")
        X, y, _ = make_sparse_classification(spec, seed=0)
        obj = LogisticObjective()
        L = obj.lipschitz_constants(X, y)
        part = partition_dataset(np.arange(X.n_rows), L, 2, scheme="uniform")
        workers = build_workers(part, 60, seed=1, importance_sampling=False)
        sim = AsyncSimulator(
            X=X, y=y, workers=workers,
            update_rule=SGDRule(objective=obj, step_size=0.05),
            staleness=ConstantDelay(3), seed=2, history=2,
        )
        result = sim.run(1)
        # Every read after warm-up requests delay 3 against 2 retained
        # records: the trace must surface the truncations.
        assert result.trace.total_history_overflows > 0
        assert result.trace.epochs[0].history_overflows > 0

    def test_default_history_never_overflows(self):
        from repro.async_engine.simulator import AsyncSimulator
        from repro.async_engine.staleness import UniformDelay
        from repro.async_engine.worker import build_workers
        from repro.core.partition import partition_dataset
        from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
        from repro.objectives.logistic import LogisticObjective
        from repro.rules.sgd import SGDRule

        spec = SyntheticSpec(n_samples=120, n_features=40, nnz_per_sample=5.0, name="t")
        X, y, _ = make_sparse_classification(spec, seed=0)
        obj = LogisticObjective()
        L = obj.lipschitz_constants(X, y)
        part = partition_dataset(np.arange(X.n_rows), L, 3, scheme="uniform")
        workers = build_workers(part, 40, seed=1, importance_sampling=False)
        sim = AsyncSimulator(
            X=X, y=y, workers=workers,
            update_rule=SGDRule(objective=obj, step_size=0.05),
            staleness=UniformDelay(4), seed=2,
        )
        result = sim.run(2)
        assert result.trace.total_history_overflows == 0

    def test_batched_replay_matches_per_sample_overflow(self):
        from repro.async_engine.batched import BatchedSimulator
        from repro.async_engine.simulator import AsyncSimulator
        from repro.async_engine.staleness import UniformDelay
        from repro.async_engine.worker import build_workers
        from repro.core.partition import partition_dataset
        from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
        from repro.objectives.logistic import LogisticObjective
        from repro.rules.sgd import SGDRule

        spec = SyntheticSpec(n_samples=150, n_features=50, nnz_per_sample=5.0, name="t")
        X, y, _ = make_sparse_classification(spec, seed=0)
        obj = LogisticObjective()
        L = obj.lipschitz_constants(X, y)
        part = partition_dataset(np.arange(X.n_rows), L, 3, scheme="uniform")

        def counters(trace):
            return [
                (e.iterations, e.conflicts, e.stale_reads, e.max_observed_delay,
                 e.history_overflows)
                for e in trace.epochs
            ]

        w1 = build_workers(part, 50, seed=5, importance_sampling=False)
        per = AsyncSimulator(
            X=X, y=y, workers=w1,
            update_rule=SGDRule(objective=obj, step_size=0.05),
            staleness=UniformDelay(4), seed=9, history=2,
        ).run(2)
        w2 = build_workers(part, 50, seed=5, importance_sampling=False)
        bat = BatchedSimulator(
            X=X, y=y, workers=w2,
            update_rule=SGDRule(objective=obj, step_size=0.05),
            staleness=UniformDelay(4), seed=9, batch_size=16, history=2,
        ).run(2)
        assert sum(e.history_overflows for e in per.trace.epochs) > 0
        assert counters(per.trace) == counters(bat.trace)
