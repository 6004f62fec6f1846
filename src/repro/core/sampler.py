"""Weighted samplers and pre-generated sample sequences.

The paper stresses that IS adds essentially no on-line cost because the
weighted sample sequence can be generated *before* training and the compute
threads simply iterate over it (Algorithm 2, line 3).  This module provides
two weighted samplers — the O(1)-per-draw alias method (Walker/Vose) and a
binary-search inverse-CDF sampler — plus :class:`SampleSequence`, the
pre-generated sequence abstraction the solvers consume.  A shard's sampler
is built once per fit; each epoch that regenerates its sequence draws from
that same table (:meth:`SampleSequence.generate` with a built sampler).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Literal, Optional, Union

import numpy as np

from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_probability_vector


#: Below this size the classic one-pair-per-iteration Vose construction is
#: used: it is already sub-millisecond there and keeps the exact alias
#: tables (hence draw streams) of the original implementation reproducible.
#: At or above it the vectorised round-based construction takes over.
VECTORIZED_BUILD_MIN_N = 4096


class AliasSampler:
    """Vose's alias method: O(n) construction, O(1) per draw.

    Parameters
    ----------
    probabilities:
        The target distribution over ``n`` items.
    seed:
        Randomness source for :meth:`draw`/:meth:`sample`.
    """

    def __init__(self, probabilities: np.ndarray, seed: RandomState = None) -> None:
        p = check_probability_vector(probabilities, "probabilities")
        self._rng = as_rng(seed)
        self.n = p.shape[0]
        self.probabilities = p
        self._prob_table = np.zeros(self.n, dtype=np.float64)
        self._alias_table = np.zeros(self.n, dtype=np.int64)
        self._build(p)

    def _build(self, p: np.ndarray) -> None:
        """Construct the alias/probability tables without a per-item Python loop.

        The classic Vose construction pops one (small, large) pair per
        interpreted iteration — O(n) Python overhead paid on every sampler
        construction (once per worker per fit).  This variant lays the
        larges' surpluses end to end on a cumulative axis and assigns each
        small's deficit to the large whose surplus window it starts in;
        every small is finalised per round with vectorised NumPy ops, and
        only larges demoted below 1 go into the next round.  Any valid alias
        table (not necessarily Vose's) represents the distribution exactly,
        which the test-suite verifies by reconstruction.  Below
        :data:`VECTORIZED_BUILD_MIN_N` items the classic sequential
        construction is kept (already sub-millisecond, and its exact
        tables/draw streams stay reproducible).
        """
        scaled = (p * self.n).copy()
        prob = self._prob_table
        alias = self._alias_table
        small = np.nonzero(scaled < 1.0)[0]
        large = np.nonzero(scaled >= 1.0)[0]
        if self.n < VECTORIZED_BUILD_MIN_N:
            self._build_sequential(scaled, list(small), list(large))
            return
        rounds = 0
        max_rounds = 64 + 2 * int(np.ceil(np.log2(self.n + 1)))
        while small.size and large.size and rounds < max_rounds:
            rounds += 1
            deficits = 1.0 - scaled[small]
            cum_def = np.cumsum(deficits)
            cum_sur = np.cumsum(scaled[large] - 1.0)
            n_l = large.size
            # Window of large j on the cumulative axis: (cum_sur[j-1], cum_sur[j]].
            # Each small is paired with the large whose window contains the
            # *start* of its deficit interval; a small whose interval spans a
            # window boundary simply drives that large's residual below 1
            # (demoting it), exactly as a sequential absorption would.
            owners = np.searchsorted(cum_sur, cum_def - deficits, side="right")
            np.clip(owners, 0, n_l - 1, out=owners)
            prob[small] = scaled[small]
            alias[small] = large[owners]
            charged = np.bincount(owners, weights=deficits, minlength=n_l)
            scaled[large] -= charged
            still_large = scaled[large] >= 1.0
            small = large[~still_large]
            large = large[still_large]
        if small.size and large.size:  # pragma: no cover - adversarial guard
            self._build_sequential(scaled, list(small), list(large))
            return
        for remaining in (*large, *small):
            prob[remaining] = 1.0
            alias[remaining] = remaining

    def _build_sequential(self, scaled: np.ndarray, small: List[int], large: List[int]) -> None:
        """Classic one-pair-per-iteration Vose construction (small n, and fallback)."""
        while small and large:
            s = small.pop()
            l = large.pop()
            self._prob_table[s] = scaled[s]
            self._alias_table[s] = l
            scaled[l] = (scaled[l] + scaled[s]) - 1.0
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        for remaining in (*large, *small):
            self._prob_table[remaining] = 1.0
            self._alias_table[remaining] = remaining

    def draw(self) -> int:
        """Draw a single index from the distribution."""
        col = int(self._rng.integers(0, self.n))
        if self._rng.random() < self._prob_table[col]:
            return col
        return int(self._alias_table[col])

    def sample(self, size: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw ``size`` i.i.d. indices (vectorised)."""
        if size < 0:
            raise ValueError("size must be non-negative")
        gen = rng if rng is not None else self._rng
        cols = gen.integers(0, self.n, size=size)
        coins = gen.random(size=size)
        take_alias = coins >= self._prob_table[cols]
        out = np.where(take_alias, self._alias_table[cols], cols)
        return out.astype(np.int64)


class InverseCDFSampler:
    """Weighted sampling by binary search on the cumulative distribution.

    O(log n) per draw; kept as a reference implementation and for the
    sampler ablation benchmark.
    """

    def __init__(self, probabilities: np.ndarray, seed: RandomState = None) -> None:
        p = check_probability_vector(probabilities, "probabilities")
        self._rng = as_rng(seed)
        self.n = p.shape[0]
        self.probabilities = p
        self._cdf = np.cumsum(p)
        self._cdf[-1] = 1.0

    def draw(self) -> int:
        """Draw a single index from the distribution."""
        u = self._rng.random()
        return int(np.searchsorted(self._cdf, u, side="right"))

    def sample(self, size: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw ``size`` i.i.d. indices (vectorised)."""
        if size < 0:
            raise ValueError("size must be non-negative")
        gen = rng if rng is not None else self._rng
        u = gen.random(size=size)
        return np.searchsorted(self._cdf, u, side="right").astype(np.int64)


SamplerKind = Literal["alias", "inverse_cdf"]


def make_sampler(
    probabilities: np.ndarray,
    kind: SamplerKind = "alias",
    seed: RandomState = None,
):
    """Factory for the weighted samplers (``"alias"`` or ``"inverse_cdf"``)."""
    if kind == "alias":
        return AliasSampler(probabilities, seed=seed)
    if kind == "inverse_cdf":
        return InverseCDFSampler(probabilities, seed=seed)
    raise ValueError(f"unknown sampler kind {kind!r}")


@dataclass
class SampleSequence:
    """A pre-generated sequence of (local) sample indices for one worker.

    Attributes
    ----------
    indices:
        The sequence of local row indices to visit, in order.
    probabilities:
        The distribution the sequence was drawn from (needed for the
        ``1/(n p_i)`` re-weighting).
    """

    indices: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.probabilities = check_probability_vector(self.probabilities, "probabilities")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.probabilities.shape[0]
        ):
            raise ValueError("sequence indices out of range of the probability vector")

    def __len__(self) -> int:
        return int(self.indices.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices.tolist())

    def __getitem__(self, t: int) -> int:
        return int(self.indices[t])

    def reshuffled(self, seed: RandomState = None) -> "SampleSequence":
        """Return a permuted copy of the sequence.

        This implements the paper's "generate once and shuffle every epoch"
        approximation (Section 4.2): the multiset of visited samples — and
        therefore the empirical sampling frequencies — is preserved while
        the visit order changes.
        """
        rng = as_rng(seed)
        return SampleSequence(indices=rng.permutation(self.indices), probabilities=self.probabilities)

    @classmethod
    def generate(
        cls,
        probabilities: np.ndarray,
        length: int,
        *,
        seed: RandomState = None,
        sampler: Union[SamplerKind, AliasSampler, InverseCDFSampler] = "alias",
    ) -> "SampleSequence":
        """Pre-generate a weighted sample sequence of ``length`` draws.

        ``sampler`` is the kind of sampler to build for ``probabilities``,
        or a sampler already built for them.  Building one consumes no
        randomness, so a sequence drawn from a table built once per fit is
        the sequence a fresh build with the same ``seed`` would draw.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        probabilities = np.asarray(probabilities, dtype=np.float64)
        rng = as_rng(seed)
        s = make_sampler(probabilities, kind=sampler, seed=rng) if isinstance(sampler, str) else sampler
        if s.n != probabilities.shape[0]:
            raise ValueError(
                f"sampler draws from {s.n} items but {probabilities.shape[0]} probabilities were given"
            )
        return cls(indices=s.sample(length, rng=rng), probabilities=probabilities)


__all__ = [
    "AliasSampler",
    "InverseCDFSampler",
    "SampleSequence",
    "make_sampler",
]
