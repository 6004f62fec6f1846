"""Tests for the convergence-curve container and recorder."""

import numpy as np
import pytest

from repro.metrics.convergence import ConvergenceCurve, EpochMetrics, MetricsRecorder
from repro.objectives.logistic import LogisticObjective


def _curve(error_rates, times=None, rmses=None):
    curve = ConvergenceCurve(label="test")
    times = times if times is not None else list(np.arange(1, len(error_rates) + 1, dtype=float))
    rmses = rmses if rmses is not None else [e + 0.5 for e in error_rates]
    for k, (e, t, r) in enumerate(zip(error_rates, times, rmses)):
        curve.append(EpochMetrics(epoch=k, iterations=(k + 1) * 10, wall_clock=t, rmse=r, error_rate=e))
    return curve


class TestAppendAndProperties:
    def test_basic_properties(self):
        c = _curve([0.5, 0.3, 0.2])
        assert len(c) == 3
        assert c.final_error_rate == pytest.approx(0.2)
        assert c.best_error_rate == pytest.approx(0.2)
        assert c.final_rmse == pytest.approx(0.7)
        assert c.best_rmse == pytest.approx(0.7)
        assert c.total_time == pytest.approx(3.0)

    def test_best_with_non_monotone_curve(self):
        c = _curve([0.5, 0.2, 0.3])
        assert c.best_error_rate == pytest.approx(0.2)
        assert c.final_error_rate == pytest.approx(0.3)

    def test_out_of_order_epochs_rejected(self):
        c = _curve([0.5])
        with pytest.raises(ValueError):
            c.append(EpochMetrics(epoch=0, iterations=1, wall_clock=1.0, rmse=1.0, error_rate=0.1))

    def test_empty_curve_raises(self):
        with pytest.raises(ValueError):
            ConvergenceCurve().final_rmse


class TestRunningBestAndInterpolation:
    def test_running_best(self):
        c = _curve([0.5, 0.2, 0.3, 0.1])
        np.testing.assert_allclose(c.running_best("error_rate"), [0.5, 0.2, 0.2, 0.1])

    def test_time_to_reach_exact_point(self):
        c = _curve([0.5, 0.3, 0.2], times=[1.0, 2.0, 3.0])
        assert c.time_to_reach(0.3) == pytest.approx(2.0)

    def test_time_to_reach_interpolates(self):
        c = _curve([0.5, 0.3], times=[1.0, 2.0])
        # Halfway between 0.5 and 0.3 -> halfway between t=1 and t=2.
        assert c.time_to_reach(0.4) == pytest.approx(1.5)

    def test_time_to_reach_unreachable(self):
        c = _curve([0.5, 0.3])
        assert c.time_to_reach(0.01) is None

    def test_time_to_reach_already_at_start(self):
        c = _curve([0.5, 0.3], times=[1.0, 2.0])
        assert c.time_to_reach(0.9) == pytest.approx(1.0)

    def test_time_to_reach_on_epoch_axis(self):
        c = _curve([0.5, 0.3, 0.1])
        assert c.time_to_reach(0.3, axis="epochs") == pytest.approx(1.0)

    def test_unknown_metric_or_axis(self):
        c = _curve([0.5])
        with pytest.raises(ValueError):
            c.time_to_reach(0.1, metric="accuracy")
        with pytest.raises(ValueError):
            c.time_to_reach(0.1, axis="minutes")


class TestSerialisation:
    def test_dict_roundtrip(self):
        c = _curve([0.4, 0.2])
        c2 = ConvergenceCurve.from_dict(c.as_dict())
        assert c2.label == c.label
        assert c2.rmse == c.rmse
        assert c2.error_rate == c.error_rate


class TestMetricsRecorder:
    def test_records_consistent_metrics(self, small_problem):
        recorder = MetricsRecorder(
            small_problem.objective, small_problem.X, small_problem.y, label="rec"
        )
        w = np.zeros(small_problem.n_features)
        m = recorder.record(epoch=0, iterations=5, wall_clock=0.1, weights=w)
        assert m.rmse == pytest.approx(small_problem.objective.rmse(w, small_problem.X, small_problem.y))
        assert len(recorder.curve) == 1

    def test_label_mismatch_validation(self, small_problem):
        with pytest.raises(ValueError):
            MetricsRecorder(small_problem.objective, small_problem.X, small_problem.y[:-1])
