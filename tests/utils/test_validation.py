"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_array_1d,
    check_in_range,
    check_index_array,
    check_positive,
    check_probability_vector,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(1.5, "x") == 1.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError, match="x"):
            check_positive(0.0, "x")

    def test_accepts_zero_when_not_strict(self):
        assert check_positive(0.0, "x", strict=False) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-1.0, "x", strict=False)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(0.0, "x", low=0.0, high=1.0) == 0.0

    def test_exclusive_bounds_reject_boundary(self):
        with pytest.raises(ValueError):
            check_in_range(0.0, "x", low=0.0, high=1.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_in_range(2.0, "x", low=0.0, high=1.0)

    def test_message_names_argument_and_bounds(self):
        with pytest.raises(ValueError, match=r"zeta must satisfy 0.0 < zeta < 1.0"):
            check_in_range(1.0, "zeta", low=0.0, high=1.0, inclusive=False)


class TestCheckArray1d:
    def test_coerces_list(self):
        out = check_array_1d([1, 2, 3], "x")
        assert out.dtype == np.float64 and out.shape == (3,)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            check_array_1d(np.zeros((2, 2)), "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_array_1d([1.0, np.nan], "x")

    def test_min_len(self):
        with pytest.raises(ValueError):
            check_array_1d([], "x", min_len=1)

    def test_non_finite_allowed_when_not_required(self):
        out = check_array_1d([1.0, np.inf, np.nan], "x", finite=False)
        assert np.isinf(out[1]) and np.isnan(out[2])

    def test_returns_contiguous_copy_of_strided_input(self):
        base = np.arange(10, dtype=np.float64)
        out = check_array_1d(base[::2], "x")
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, [0.0, 2.0, 4.0, 6.0, 8.0])


class TestCheckProbabilityVector:
    def test_normalises_fp_noise(self):
        p = check_probability_vector([0.5, 0.5 + 1e-12])
        assert p.sum() == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_probability_vector([-0.1, 1.1])

    def test_rejects_not_summing_to_one(self):
        with pytest.raises(ValueError):
            check_probability_vector([0.2, 0.2])

    def test_clips_noise_level_negatives(self):
        p = check_probability_vector([-1e-12, 0.5, 0.5 + 1e-12])
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0)


class TestMisc:
    def test_index_array_bounds(self):
        out = check_index_array([0, 1, 2], "idx", upper=3)
        assert out.dtype == np.int64
        with pytest.raises(ValueError):
            check_index_array([0, 3], "idx", upper=3)
        with pytest.raises(ValueError):
            check_index_array([-1], "idx")

    def test_index_array_rejects_2d_and_accepts_empty(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            check_index_array([[0, 1]], "idx")
        assert check_index_array([], "idx", upper=0).size == 0
