"""Tests for the staleness (delay) models."""

import numpy as np
import pytest

from repro.async_engine.staleness import (
    ConstantDelay,
    StalenessModel,
    GeometricDelay,
    UniformDelay,
)


class TestConstantDelay:
    def test_always_constant(self, rng):
        assert ConstantDelay(5).draw_batch(rng, 20).tolist() == [5] * 20

    def test_expected_delay(self):
        assert ConstantDelay(4).expected_delay() == 4.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantDelay(-1)


class TestUniformDelay:
    def test_range(self, rng):
        model = UniformDelay(7)
        draws = model.draw_batch(rng, 500)
        assert draws.min() >= 0 and draws.max() <= 7
        # All values should be hit for this many draws.
        assert set(draws.tolist()) == set(range(8))

    def test_zero_max(self, rng):
        assert UniformDelay(0).draw_batch(rng, 1).tolist() == [0]

    def test_mean_close_to_half_max(self, rng):
        model = UniformDelay(10)
        draws = model.draw_batch(rng, 5000)
        assert abs(draws.mean() - 5.0) < 0.3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            UniformDelay(-2)


class TestGeometricDelay:
    def test_truncated_at_max(self, rng):
        model = GeometricDelay(4, mean_delay=10.0)
        draws = model.draw_batch(rng, 300)
        assert draws.max() <= 4 and draws.min() >= 0

    def test_small_mean_mostly_fresh(self, rng):
        model = GeometricDelay(20, mean_delay=0.2)
        draws = model.draw_batch(rng, 2000)
        assert (draws == 0).mean() > 0.6

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            GeometricDelay(5, mean_delay=0.0)

    def test_zero_max(self, rng):
        assert GeometricDelay(0).draw_batch(rng, 1).tolist() == [0]


class TestDrawBatch:
    """One draw of any size consumes the Generator stream like split draws."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ConstantDelay(4),
            lambda: UniformDelay(7),
            lambda: GeometricDelay(9, mean_delay=2.0),
        ],
        ids=["constant", "uniform", "geometric"],
    )
    def test_split_draws_match_one_draw(self, make):
        model = make()
        whole = model.draw_batch(np.random.default_rng(42), 64)
        split_rng = np.random.default_rng(42)
        split = [model.draw_batch(split_rng, size) for size in (1, 20, 1, 42)]
        assert whole.dtype == np.int64
        assert whole.tolist() == np.concatenate(split).tolist()

    def test_draw_batch_is_the_abstract_method(self):
        class NoDraws(StalenessModel):
            max_delay = 1

        with pytest.raises(TypeError, match="draw_batch"):
            NoDraws()

    def test_empty_batch(self, rng):
        assert UniformDelay(3).draw_batch(rng, 0).shape == (0,)


class TestZeroDelayEdgeCases:
    """Zero-delay models: always fresh and no Generator consumption."""

    @pytest.mark.parametrize(
        "make",
        [lambda: ConstantDelay(0), lambda: UniformDelay(0), lambda: GeometricDelay(0)],
        ids=["constant0", "uniform0", "geometric0"],
    )
    def test_all_draws_zero_and_stream_untouched(self, make):
        model = make()
        rng = np.random.default_rng(3)
        untouched = np.random.default_rng(3)
        assert not model.draw_batch(rng, 100).any()
        # A zero-delay model never consumes randomness, so changing the
        # staleness model cannot shift any other seeded draw.
        assert float(rng.random()) == float(untouched.random())

    def test_zero_delay_expected_zero(self):
        assert ConstantDelay(0).expected_delay() == 0.0
        assert UniformDelay(0).expected_delay() == 0.0
        assert GeometricDelay(0).expected_delay() == 0.0
