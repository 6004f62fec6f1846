"""Tests for the weighted samplers and sample sequences."""

import numpy as np
import pytest

from repro.core.sampler import AliasSampler, InverseCDFSampler, SampleSequence, make_sampler


@pytest.fixture()
def skewed_probs():
    p = np.array([0.05, 0.1, 0.15, 0.3, 0.4])
    return p / p.sum()


class TestAliasSampler:
    def test_draw_in_range(self, skewed_probs):
        s = AliasSampler(skewed_probs, seed=0)
        for _ in range(100):
            assert 0 <= s.draw() < skewed_probs.size

    def test_empirical_distribution_converges(self, skewed_probs):
        s = AliasSampler(skewed_probs, seed=0)
        draws = s.sample(60_000)
        freqs = np.bincount(draws, minlength=5) / draws.size
        np.testing.assert_allclose(freqs, skewed_probs, atol=0.01)

    def test_reproducible_with_seed(self, skewed_probs):
        a = AliasSampler(skewed_probs, seed=3).sample(50)
        b = AliasSampler(skewed_probs, seed=3).sample(50)
        np.testing.assert_array_equal(a, b)

    def test_uniform_case(self):
        p = np.full(4, 0.25)
        s = AliasSampler(p, seed=0)
        draws = s.sample(40_000)
        freqs = np.bincount(draws, minlength=4) / draws.size
        np.testing.assert_allclose(freqs, 0.25, atol=0.01)

    def test_single_item(self):
        s = AliasSampler(np.array([1.0]), seed=0)
        assert s.draw() == 0

    def test_degenerate_distribution(self):
        p = np.array([0.0, 1.0, 0.0])
        s = AliasSampler(p, seed=0)
        assert set(s.sample(200).tolist()) == {1}

    def test_invalid_size(self, skewed_probs):
        with pytest.raises(ValueError):
            AliasSampler(skewed_probs).sample(-1)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 501, 5000])
    def test_alias_table_reconstructs_distribution_exactly(self, n):
        """The defining alias invariant: per-column mass equals ``n * p``."""
        rng = np.random.default_rng(n)
        p = rng.random(n) + 1e-3
        p = p / p.sum()
        s = AliasSampler(p, seed=0)
        recon = s._prob_table.copy()
        np.add.at(recon, s._alias_table, 1.0 - s._prob_table)
        np.testing.assert_allclose(recon / n, p, atol=1e-12)

    @pytest.mark.parametrize(
        "raw",
        [
            # Sizes above VECTORIZED_BUILD_MIN_N exercise the round-based build.
            [1000.0] + [1e-4] * 5000,  # one dominant item absorbing everything
            [1e-4] * 5000 + [1000.0, 900.0],  # dominant tail
            list(np.exp(np.random.default_rng(7).normal(0.0, 1.5, size=6000))),
        ],
        ids=["head_dominant", "tail_dominant", "heavy_tail"],
    )
    def test_alias_table_exact_for_extreme_spectra(self, raw):
        p = np.asarray(raw, dtype=np.float64)
        p = p / p.sum()
        s = AliasSampler(p, seed=0)
        recon = s._prob_table.copy()
        np.add.at(recon, s._alias_table, 1.0 - s._prob_table)
        np.testing.assert_allclose(recon / p.size, p, atol=1e-12)
        assert np.all(s._prob_table >= 0.0) and np.all(s._prob_table <= 1.0 + 1e-12)


class TestInverseCDFSampler:
    def test_empirical_distribution_converges(self, skewed_probs):
        s = InverseCDFSampler(skewed_probs, seed=0)
        draws = s.sample(60_000)
        freqs = np.bincount(draws, minlength=5) / draws.size
        np.testing.assert_allclose(freqs, skewed_probs, atol=0.01)

    def test_draw_in_range(self, skewed_probs):
        s = InverseCDFSampler(skewed_probs, seed=1)
        assert all(0 <= s.draw() < 5 for _ in range(50))

    def test_agrees_with_alias_statistically(self, skewed_probs):
        a = AliasSampler(skewed_probs, seed=0).sample(40_000)
        b = InverseCDFSampler(skewed_probs, seed=1).sample(40_000)
        fa = np.bincount(a, minlength=5) / a.size
        fb = np.bincount(b, minlength=5) / b.size
        np.testing.assert_allclose(fa, fb, atol=0.015)


class TestMakeSampler:
    def test_factory_kinds(self, skewed_probs):
        assert isinstance(make_sampler(skewed_probs, "alias"), AliasSampler)
        assert isinstance(make_sampler(skewed_probs, "inverse_cdf"), InverseCDFSampler)

    def test_unknown_kind(self, skewed_probs):
        with pytest.raises(ValueError):
            make_sampler(skewed_probs, "bogus")


class TestSampleSequence:
    def test_generate_length_and_range(self, skewed_probs):
        seq = SampleSequence.generate(skewed_probs, 500, seed=0)
        assert len(seq) == 500
        assert seq.indices.min() >= 0 and seq.indices.max() < 5

    def test_empirical_frequencies(self, skewed_probs):
        seq = SampleSequence.generate(skewed_probs, 50_000, seed=0)
        frequencies = np.bincount(seq.indices, minlength=skewed_probs.shape[0]) / len(seq)
        np.testing.assert_allclose(frequencies, skewed_probs, atol=0.01)

    def test_reshuffled_preserves_multiset(self, skewed_probs):
        seq = SampleSequence.generate(skewed_probs, 200, seed=0)
        shuffled = seq.reshuffled(seed=1)
        assert sorted(seq.indices.tolist()) == sorted(shuffled.indices.tolist())
        assert not np.array_equal(seq.indices, shuffled.indices)

    def test_iteration_and_indexing(self, skewed_probs):
        seq = SampleSequence.generate(skewed_probs, 10, seed=0)
        assert list(seq)[3] == seq[3]

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError):
            SampleSequence(indices=np.array([5]), probabilities=np.array([0.5, 0.5]))

    def test_negative_length_rejected(self, skewed_probs):
        with pytest.raises(ValueError):
            SampleSequence.generate(skewed_probs, -1)


class TestGenerateFromABuiltSampler:
    """One table built per fit draws what a fresh build per epoch would."""

    @pytest.mark.parametrize("kind, cls", [("alias", AliasSampler), ("inverse_cdf", InverseCDFSampler)])
    def test_one_sampler_draws_every_seed_bit_for_bit(self, skewed_probs, kind, cls):
        sampler = cls(skewed_probs)
        for seed in (0, 1, 7, 2**31 - 2):
            built = SampleSequence.generate(skewed_probs, 300, seed=seed, sampler=sampler)
            fresh = SampleSequence.generate(skewed_probs, 300, seed=seed, sampler=kind)
            assert built.indices.tobytes() == fresh.indices.tobytes()
            np.testing.assert_array_equal(built.probabilities, fresh.probabilities)

    def test_a_sampler_of_another_size_is_rejected(self, skewed_probs):
        with pytest.raises(ValueError, match="5 probabilities"):
            SampleSequence.generate(skewed_probs, 10, seed=0, sampler=AliasSampler(np.ones(3) / 3))
