"""Tests for repro.utils.rng."""

import numpy as np

from repro.utils.rng import as_rng, derive_seed, permutation


class TestAsRng:
    def test_int_seed_is_reproducible(self):
        a = as_rng(42).random(5)
        b = as_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_rng(1).random(5)
        b = as_rng(2).random(5)
        assert not np.allclose(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(5)
        a = as_rng(ss)
        assert isinstance(a, np.random.Generator)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(10, 1, 2) == derive_seed(10, 1, 2)

    def test_tags_change_result(self):
        assert derive_seed(10, 1) != derive_seed(10, 2)

    def test_returns_int(self):
        assert isinstance(derive_seed(0, 7), int)

    def test_generator_seed_draws_from_the_generator(self):
        # Same-seeded generators derive the same sub-seed; the parent advances.
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        assert derive_seed(a, 1) == derive_seed(b, 1)
        assert derive_seed(a, 1) != derive_seed(np.random.default_rng(4), 1)

    def test_seed_sequence_is_deterministic(self):
        assert derive_seed(np.random.SeedSequence(8), 3) == derive_seed(
            np.random.SeedSequence(8), 3
        )


class TestSamplingHelpers:
    def test_permutation_is_permutation(self):
        p = permutation(0, 10)
        assert sorted(p.tolist()) == list(range(10))

    def test_permutation_is_reproducible_int64(self):
        p = permutation(5, 12)
        assert p.dtype == np.int64
        np.testing.assert_array_equal(p, permutation(5, 12))
        assert permutation(5, 0).size == 0
