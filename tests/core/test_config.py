"""Tests for ISASGDConfig."""

import pytest

from repro.core.balancing import BalancingDecision
from repro.core.config import ISASGDConfig
from repro.core.importance import ImportanceScheme


class TestISASGDConfig:
    def test_defaults_valid(self):
        cfg = ISASGDConfig()
        assert cfg.step_size > 0
        assert cfg.importance is ImportanceScheme.LIPSCHITZ

    def test_string_importance_coerced(self):
        cfg = ISASGDConfig(importance="uniform")
        assert cfg.importance is ImportanceScheme.UNIFORM

    def test_with_updates_returns_copy(self):
        cfg = ISASGDConfig(num_workers=4)
        cfg2 = cfg.with_updates(num_workers=8)
        assert cfg.num_workers == 4 and cfg2.num_workers == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_size": 0.0},
            {"epochs": 0},
            {"num_workers": 0},
            {"zeta": 0.0},
            {"step_clip": 0.0},
            {"record_every": 0},
            {"importance": "bogus"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ISASGDConfig(**kwargs)

    def test_force_balancing_accepts_enum(self):
        cfg = ISASGDConfig(force_balancing=BalancingDecision.SHUFFLE)
        assert cfg.force_balancing is BalancingDecision.SHUFFLE
