"""Tests for repro.utils.timer."""

from types import SimpleNamespace

import pytest

from repro.utils import timer
from repro.utils.timer import measure_call


def _scripted(monkeypatch, durations):
    """A callable whose calls take ``durations`` in turn on a fake clock."""
    now = [0.0]
    monkeypatch.setattr(timer, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    remaining = iter(durations)

    def call():
        now[0] += next(remaining)

    return call, remaining


class TestMeasureCall:
    def test_returns_positive(self):
        assert measure_call(lambda: sum(range(100)), repeats=2, warmup=0) > 0.0

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            measure_call(lambda: None, repeats=0)

    def test_returns_the_fastest_repeat(self, monkeypatch):
        call, _ = _scripted(monkeypatch, [3.0, 1.0, 2.0])
        assert measure_call(call, repeats=3, warmup=0) == 1.0

    def test_warmup_calls_run_untimed(self, monkeypatch):
        call, remaining = _scripted(monkeypatch, [0.5, 0.5, 4.0, 8.0])
        assert measure_call(call, repeats=2, warmup=2) == 4.0
        assert next(remaining, None) is None

    def test_negative_warmup_runs_no_warmup_call(self, monkeypatch):
        call, remaining = _scripted(monkeypatch, [2.0, 7.0])
        assert measure_call(call, repeats=1, warmup=-1) == 2.0
        assert next(remaining) == 7.0
