"""Direct unit tests for the shared trace/counter folding helpers.

These helpers used to be copy-pasted between the per-sample simulator, the
batched engine and the cluster driver; every engine now folds through
:mod:`repro.runtime.trace_fold`, so the contract is pinned here once.
"""

import numpy as np
import pytest

from repro.async_engine.events import EpochEvent
from repro.rules.sgd import SGDRule
from repro.runtime.trace_fold import (
    build_schedule,
    fold_block,
    fold_sync_step,
    fold_worker_counters,
)


class _FakeWorker:
    def __init__(self, worker_id, iterations):
        self.worker_id = worker_id
        self.iterations_per_epoch = iterations


class _FakeRule:
    grad_nnz_multiplier = 2
    counts_sample_draws = False
    dense_delta = np.ones(7)


class TestBuildSchedule:
    def test_counts_and_composition(self):
        workers = [_FakeWorker(0, 3), _FakeWorker(1, 5), _FakeWorker(2, 2)]
        schedule = build_schedule(workers, np.random.default_rng(0))
        assert schedule.size == 10
        assert {int(w): int((schedule == w).sum()) for w in (0, 1, 2)} == {0: 3, 1: 5, 2: 2}

    def test_deterministic_given_seed(self):
        workers = [_FakeWorker(0, 4), _FakeWorker(1, 4)]
        a = build_schedule(workers, np.random.default_rng(42))
        b = build_schedule(workers, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_shuffled_not_sorted(self):
        workers = [_FakeWorker(0, 50), _FakeWorker(1, 50)]
        schedule = build_schedule(workers, np.random.default_rng(1))
        assert not np.all(schedule[:50] == 0)  # astronomically unlikely if shuffled


class TestFoldBlock:
    def test_applies_rule_metadata(self):
        event = EpochEvent(epoch=0)
        fold_block(event, _FakeRule(), iterations=5, support_nnz=15, conflicts=5,
                   delays=np.array([0, 2, 1, 0, 4]), history_overflows=1)
        assert event.iterations == 5
        assert event.sparse_coordinate_updates == 30  # 2 * support_nnz
        assert event.dense_coordinate_updates == 5 * 7  # the dense delta's dimension
        assert event.conflicts == 5
        assert event.stale_reads == 3
        assert event.sample_draws == 0
        assert event.max_observed_delay == 4
        assert event.history_overflows == 1

    def test_split_blocks_fold_like_one(self):
        rule = _FakeRule()
        delays = np.array([0, 2, 1, 0, 4])
        split = EpochEvent(epoch=0)
        fold_block(split, rule, iterations=2, support_nnz=6, conflicts=2, delays=delays[:2])
        fold_block(split, rule, iterations=3, support_nnz=9, conflicts=3, delays=delays[2:])
        whole = EpochEvent(epoch=0)
        fold_block(whole, rule, iterations=5, support_nnz=15, conflicts=5, delays=delays)
        assert split == whole

    def test_sparse_rule_counts_sample_draws(self):
        event = EpochEvent(epoch=0)
        fold_block(event, SGDRule(objective=None, step_size=0.1), iterations=3,
                   support_nnz=6, conflicts=0, delays=np.zeros(3, dtype=np.int64))
        assert (event.sparse_coordinate_updates, event.dense_coordinate_updates,
                event.sample_draws, event.stale_reads) == (6, 0, 3, 0)


class TestFoldSyncStep:
    def test_prices_one_full_pass(self):
        event = EpochEvent(epoch=0)
        fold_sync_step(event, nnz=100, dim=20)
        assert (event.iterations, event.sparse_coordinate_updates,
                event.dense_coordinate_updates) == (1, 100, 20)


class TestFoldWorkerCounters:
    def test_folds_cluster_counter_delta(self):
        from repro.cluster.worker import (
            COL_CONFLICTS,
            COL_DENSE_WRITES,
            COL_ITERATIONS,
            COL_SAMPLE_DRAWS,
            COL_SPARSE_WRITES,
            COL_STALE_READS,
            NUM_COUNTER_COLS,
        )

        delta = np.zeros((2, NUM_COUNTER_COLS), dtype=np.int64)
        delta[0, COL_ITERATIONS] = 10
        delta[1, COL_ITERATIONS] = 12
        delta[:, COL_SPARSE_WRITES] = (30, 36)
        delta[:, COL_DENSE_WRITES] = (5, 0)
        delta[:, COL_CONFLICTS] = (2, 3)
        delta[:, COL_SAMPLE_DRAWS] = (10, 12)
        delta[:, COL_STALE_READS] = (4, 6)
        event = EpochEvent(epoch=1)
        iters = fold_worker_counters(event, delta, max_delay=9)
        assert iters == 22
        assert event.iterations == 22
        assert event.sparse_coordinate_updates == 66
        assert event.dense_coordinate_updates == 5
        assert event.conflicts == 5
        assert event.sample_draws == 22
        assert event.stale_reads == 10
        assert event.max_observed_delay == 9
