"""Tests for the run-level record."""

import base64
import json

import numpy as np
import pytest

from repro.async_engine.events import EpochEvent, ExecutionTrace
from repro.metrics.convergence import ConvergenceCurve, EpochMetrics
from repro.metrics.tracing import RunRecord


def _record():
    curve = ConvergenceCurve(label="r")
    curve.append(EpochMetrics(epoch=0, iterations=10, wall_clock=1.0, rmse=0.8, error_rate=0.4))
    curve.append(EpochMetrics(epoch=1, iterations=20, wall_clock=2.0, rmse=0.5, error_rate=0.2))
    trace = ExecutionTrace()
    e = EpochEvent(epoch=0)
    e.merge_bulk(iterations=1, grad_nnz=5, conflicts=1, sample_draws=1, stale_reads=1,
                 max_delay=1)
    trace.add_epoch(e)
    return RunRecord(
        solver="is_asgd",
        dataset="news20",
        num_workers=8,
        curve=curve,
        trace=trace,
        info={"rho": 0.1, "note": "x", "nested": {"ignored": 1}},
    )


class TestRunRecord:
    def test_label(self):
        assert _record().label == "is_asgd[news20, T=8]"

    def test_summary_core_fields(self):
        s = _record().summary()
        assert s["solver"] == "is_asgd"
        assert s["num_workers"] == 8
        assert s["best_error_rate"] == pytest.approx(0.2)
        assert s["total_time"] == pytest.approx(2.0)
        assert s["conflict_rate"] == pytest.approx(1.0)

    def test_summary_includes_scalar_info_only(self):
        s = _record().summary()
        assert s["rho"] == pytest.approx(0.1)
        assert s["note"] == "x"
        assert "nested" not in s

    def test_trace_optional(self):
        record = _record()
        record.trace = None
        s = record.summary()
        assert "conflict_rate" not in s


class TestRunRecordSerialization:
    """JSON round-trips of the full run record (the artifact-store format)."""

    def test_round_trip_preserves_everything(self):
        record = _record()
        payload = json.loads(json.dumps(record.to_dict()))
        clone = RunRecord.from_dict(payload)
        assert clone.solver == record.solver
        assert clone.dataset == record.dataset
        assert clone.num_workers == record.num_workers
        assert clone.curve.as_dict() == record.curve.as_dict()
        assert clone.trace.epochs == record.trace.epochs
        assert clone.info["rho"] == pytest.approx(0.1)
        assert clone.info["nested"] == {"ignored": 1}

    def test_measured_wall_clock_axis_round_trips(self):
        # The process-cluster tier stores a *measured* time axis on the
        # curve; serialization must keep it bit-equal.
        record = _record()
        record.info["measured_train_seconds"] = 1.2345678901234567
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.curve.wall_clock == record.curve.wall_clock
        assert clone.info["measured_train_seconds"] == record.info["measured_train_seconds"]

    def test_history_overflows_round_trip(self):
        record = _record()
        record.trace.epochs[0].history_overflows = 11
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.trace.epochs[0].history_overflows == 11
        assert clone.trace.total_history_overflows == 11

    def test_numpy_info_values_coerced(self):
        record = _record()
        record.info["np_float"] = np.float64(0.5)
        record.info["np_int"] = np.int64(7)
        record.info["np_array"] = np.arange(3.0)
        payload = record.to_dict()
        assert payload["info"]["np_float"] == 0.5
        assert payload["info"]["np_int"] == 7
        # A numeric array leaves "info" for "arrays": dtype, shape, base64.
        assert "np_array" not in payload["info"]
        assert payload["arrays"]["np_array"] == {
            "dtype": "float64",
            "shape": [3],
            "data": base64.b64encode(np.arange(3.0).tobytes()).decode("ascii"),
        }

    def test_unserializable_info_dropped_loudly(self):
        record = _record()
        record.info["live_object"] = object()
        payload = record.to_dict()
        assert "live_object" not in payload["info"]
        assert payload["_dropped_info"] == ["live_object"]

    def test_traceless_record_round_trips(self):
        record = _record()
        record.trace = None
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.trace is None


def _json_round_trip(record):
    return RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))


class TestRunRecordArrays:
    """Numeric ``info`` arrays round-trip bit-exactly (artifact format 2)."""

    def test_float_special_values_are_bit_exact(self):
        nan_payload = np.array([0x7FF8000000000BAD], dtype=np.uint64).view(np.float64)
        weights = np.concatenate([[-0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3,
                                   np.nan, np.inf, -np.inf, 0.1, -1e308], nan_payload])
        record = _record()
        record.info["weights"] = weights
        clone = _json_round_trip(record)
        out = clone.info["weights"]
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == weights.shape
        assert out.tobytes() == weights.tobytes()  # -0.0, NaN payload, subnormals
        assert out.flags.writeable

    @pytest.mark.parametrize("array", [
        np.array([1, -2, 3], dtype=np.int64),
        np.array([7, 8], dtype=np.int32),
        np.array([0, 255], dtype=np.uint8),
        np.array([True, False, True]),
        np.array(5, dtype=np.int64),
        np.array(True),
        np.array(2.5),
        np.zeros(0, dtype=np.int64),
        np.zeros((0, 3), dtype=bool),
        np.arange(6, dtype=np.float32).reshape(2, 3),
        np.arange(6.0).reshape(3, 2).T,  # not C-contiguous
    ], ids=lambda a: f"{a.dtype}{list(a.shape)}")
    def test_dtype_and_shape_survive(self, array):
        record = _record()
        record.info["values"] = array
        out = _json_round_trip(record).info["values"]
        assert out.dtype == array.dtype
        assert out.shape == array.shape
        assert out.tobytes() == array.tobytes()

    def test_record_without_arrays_writes_no_arrays_key(self):
        payload = _record().to_dict()
        assert "arrays" not in payload
        assert RunRecord.from_dict(payload).info == _record().info

    def test_info_keeps_plain_json_only(self):
        # Lists, strings and dicts shaped like an encoded array stay in
        # "info" as they are; only ndarrays move to "arrays".
        lookalike = {"dtype": "float64", "shape": [1], "data": "AAAAAAAA8D8="}
        record = _record()
        record.info.update(series=[0.5, 0.25], names=np.array(["a", "b"]), lookalike=lookalike)
        payload = record.to_dict()
        assert "arrays" not in payload
        assert payload["info"]["series"] == [0.5, 0.25]
        assert payload["info"]["names"] == ["a", "b"]
        clone = _json_round_trip(record)
        assert clone.info["lookalike"] == lookalike
        assert clone.info["series"] == [0.5, 0.25]

    def test_format_1_weights_load_as_a_float64_array(self):
        # Format 1 stored the weights as a float list in "info"; they load
        # as an array, so a re-save stores them bit-exact.  Other lists stay.
        payload = _record().to_dict()
        payload["info"].update(weights=[0.5, -0.0, 1e-300], series=[0.5, 0.25])
        clone = RunRecord.from_dict(payload)
        assert clone.info["weights"].dtype == np.float64
        assert clone.info["weights"].tobytes() == np.array([0.5, -0.0, 1e-300]).tobytes()
        assert clone.info["series"] == [0.5, 0.25]
