"""Unit tests of the cluster's occupancy statistics and trace comparison."""

import pytest

from repro.async_engine.events import EpochEvent, ExecutionTrace
from repro.cluster.cost_model import compare_traces, occupancy_skew


def _epoch(iterations=100_000, sparse=3_000_000, conflicts=0, dense=0) -> EpochEvent:
    e = EpochEvent(epoch=0)
    e.merge_bulk(
        iterations=iterations, grad_nnz=sparse, dense_coords=dense,
        conflicts=conflicts, sample_draws=iterations,
    )
    return e


class TestOccupancySkew:
    def test_even_spread_is_zero(self):
        assert occupancy_skew([10, 10, 10, 10]) == pytest.approx(0.0)

    def test_single_hot_shard_is_max(self):
        assert occupancy_skew([100, 0, 0, 0]) == pytest.approx(3.0)

    def test_empty_is_zero(self):
        assert occupancy_skew([]) == 0.0
        assert occupancy_skew([0, 0]) == 0.0


class TestCompareTraces:
    def test_summary_fields(self):
        measured = ExecutionTrace()
        measured.add_epoch(_epoch(iterations=1000, sparse=8000, conflicts=20))
        simulated = ExecutionTrace()
        simulated.add_epoch(_epoch(iterations=1000, sparse=8000, conflicts=10))
        out = compare_traces(measured, simulated)
        assert out["measured_conflict_rate"] == pytest.approx(0.02)
        assert out["simulated_conflict_rate"] == pytest.approx(0.01)
        assert out["conflict_rate_ratio"] == pytest.approx(2.0)
