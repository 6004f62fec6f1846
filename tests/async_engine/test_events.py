"""Tests for epoch/iteration event records."""

import pytest

from repro.async_engine.events import EpochEvent, ExecutionTrace, IterationEvent


class TestEpochEvent:
    def test_merge_bulk_accumulates(self):
        e = EpochEvent(epoch=0)
        e.merge_bulk(iterations=1, grad_nnz=5, conflicts=1, sample_draws=1, stale_reads=1,
                     max_delay=2, history_overflows=1)
        e.merge_bulk(iterations=1, grad_nnz=3, dense_coords=10, sample_draws=1, max_delay=0)
        assert e.iterations == 2
        assert e.sparse_coordinate_updates == 8
        assert e.dense_coordinate_updates == 10
        assert e.conflicts == 1
        assert e.stale_reads == 1
        assert e.sample_draws == 2
        assert e.max_observed_delay == 2
        assert e.history_overflows == 1

    def test_conflict_rate(self):
        e = EpochEvent(epoch=0)
        assert e.conflict_rate == 0.0
        e.merge_bulk(iterations=1, grad_nnz=1, conflicts=2)
        assert e.conflict_rate == pytest.approx(2.0)


class TestExecutionTrace:
    def _trace(self):
        t = ExecutionTrace()
        for k in range(3):
            e = EpochEvent(epoch=k)
            e.merge_bulk(iterations=1, grad_nnz=4, dense_coords=2, conflicts=k, max_delay=k)
            t.add_epoch(e)
        return t

    def test_totals(self):
        t = self._trace()
        assert t.total_iterations == 3
        assert t.total_conflicts == 3
        assert t.total_sparse_coordinate_updates == 12
        assert t.total_dense_coordinate_updates == 6

    def test_conflict_rate(self):
        assert self._trace().conflict_rate() == pytest.approx(1.0)

    def test_empty_trace(self):
        t = ExecutionTrace()
        assert t.total_iterations == 0
        assert t.conflict_rate() == 0.0

    def test_iteration_events_optional(self):
        t = ExecutionTrace(iterations=[])
        t.iterations.append(
            IterationEvent(
                global_step=0, worker_id=1, sample_index=2, delay=0, conflicts=0,
                grad_nnz=3, step_scale=1.0,
            )
        )
        assert len(t.iterations) == 1


class TestEventSerialization:
    """JSON round-trips of the event/trace containers (the artifact-store path)."""

    def _full_epoch(self):
        e = EpochEvent(epoch=2)
        e.merge_bulk(
            iterations=100, grad_nnz=400, dense_coords=50, conflicts=7,
            sample_draws=100, stale_reads=30, max_delay=9, history_overflows=3,
        )
        return e

    def test_epoch_event_round_trip(self):
        e = self._full_epoch()
        clone = EpochEvent.from_dict(e.to_dict())
        assert clone == e
        assert clone.history_overflows == 3
        assert clone.max_observed_delay == 9

    def test_epoch_event_payload_is_json_safe(self):
        import json

        payload = json.loads(json.dumps(self._full_epoch().to_dict()))
        assert EpochEvent.from_dict(payload) == self._full_epoch()

    def test_epoch_event_missing_counter_defaults(self):
        # Artifacts written before a counter existed must still load.
        payload = self._full_epoch().to_dict()
        del payload["history_overflows"]
        assert EpochEvent.from_dict(payload).history_overflows == 0

    def test_epoch_event_requires_epoch(self):
        with pytest.raises(ValueError, match="epoch"):
            EpochEvent.from_dict({"iterations": 1})

    def test_iteration_event_round_trip(self):
        it = IterationEvent(
            global_step=5, worker_id=1, sample_index=42, delay=3, conflicts=2,
            grad_nnz=17, step_scale=0.75,
        )
        assert IterationEvent.from_dict(it.to_dict()) == it

    def test_trace_round_trip_without_iterations(self):
        t = ExecutionTrace(epochs=[self._full_epoch()])
        clone = ExecutionTrace.from_dict(t.to_dict())
        assert clone.epochs == t.epochs
        assert clone.iterations is None
        assert clone.total_history_overflows == 3

    def test_trace_round_trip_with_iterations(self):
        t = ExecutionTrace(
            epochs=[self._full_epoch()],
            iterations=[
                IterationEvent(global_step=0, worker_id=0, sample_index=1, delay=0,
                               conflicts=0, grad_nnz=2, step_scale=1.0)
            ],
        )
        clone = ExecutionTrace.from_dict(t.to_dict())
        assert clone.iterations == t.iterations
        assert clone.epochs == t.epochs

    def test_iteration_event_tolerates_unknown_and_missing_fields(self):
        it = IterationEvent(
            global_step=5, worker_id=1, sample_index=42, delay=3, conflicts=2,
            grad_nnz=17, step_scale=0.75,
        )
        payload = it.to_dict()
        # Newer artifacts may carry fields this version does not know.
        payload["future_counter"] = 9
        assert IterationEvent.from_dict(payload) == it
        # A missing required field is a ValueError, not a bare KeyError.
        del payload["future_counter"]
        del payload["worker_id"]
        with pytest.raises(ValueError, match="worker_id"):
            IterationEvent.from_dict(payload)
