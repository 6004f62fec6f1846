"""Seeded inputs of the benchmark, generated with vectorized numpy.

Everything a workload feeds the program comes from here, derived from the
``--seed`` argument alone:

* the training set, written once as a LibSVM file (the program loads it
  with ``load_dataset(path)``, as a user with the paper's files would);
* the query streams of the serve workloads (rows never seen in training);
* the weight versions republished during ``serve-hot``.

The generator deliberately does not use ``repro.datasets.synthetic``: its
per-row draw over all features is far too slow at the benchmark's shape,
and a change to the program must never change the benchmark's inputs.

Shape of the training set (``DATA_SHAPE``): ``d = 10 n`` features, 10 to 30
draws per row (about 18 distinct non-zeros), Zipf-skewed feature popularity
(so concurrent updates conflict) and lognormal-tailed row norms (so the
per-sample Lipschitz constants are skewed and importance sampling and
balancing engage).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np


#: Feature popularity follows a power law with this exponent.
ZIPF_EXPONENT = 1.1
#: Row norms are lognormal with this sigma (so L_i = ||x_i||^2 is skewed).
NORM_SIGMA = 0.8
#: Share of labels flipped against the planted model.
LABEL_NOISE = 0.05


@dataclass(frozen=True)
class DataShape:
    """Size of a generated training set."""

    n_rows: int
    n_features: int
    nnz_per_row: int


#: The training set every workload uses (d = 10 n, ~18 nnz/row).
DATA_SHAPE = DataShape(n_rows=20_000, n_features=200_000, nnz_per_row=20)


def _zipf_columns(rng: np.random.Generator, size: int, shape: DataShape, perm: np.ndarray) -> np.ndarray:
    """``size`` feature ids with Zipf-like popularity, scattered by ``perm``.

    Ranks follow a continuous power law on ``[1, d + 1)`` (inverse-CDF
    draw), so rank 0 is the most popular feature; ``perm`` maps ranks to
    feature ids so the popular features are spread over the index space.
    """
    s = ZIPF_EXPONENT
    u = rng.random(size)
    lo, hi = 1.0, float(shape.n_features + 1)
    a, b = lo ** (1.0 - s), hi ** (1.0 - s)
    ranks = np.floor((a + u * (b - a)) ** (1.0 / (1.0 - s)) - 1.0).astype(np.int64)
    np.clip(ranks, 0, shape.n_features - 1, out=ranks)
    return perm[ranks]


def _rows(
    rng: np.random.Generator, n: int, shape: DataShape, perm: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``n`` CSR rows ``(indptr, indices, values)`` with sorted, unique columns."""
    k = shape.nnz_per_row
    lengths = rng.integers(k // 2, k + k // 2 + 1, size=n)
    row_of = np.repeat(np.arange(n, dtype=np.int64), lengths)
    cols = _zipf_columns(rng, row_of.size, shape, perm)
    keys = np.sort(row_of * shape.n_features + cols)
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]  # drop repeats
    row_of = keys // shape.n_features
    cols = keys % shape.n_features
    counts = np.bincount(row_of, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    vals = rng.lognormal(0.0, 0.5, size=cols.size)
    # Unit-norm rows scaled by a lognormal tail: heavy-tailed ||x_i||
    # whose moments all exist, so the skew is similar from seed to seed.
    norms = np.sqrt(np.bincount(row_of, weights=vals * vals, minlength=n))
    scale = rng.lognormal(0.0, NORM_SIGMA, size=n)
    vals = vals * (scale / norms)[row_of]
    return indptr, cols, vals


@dataclass
class TrainingSet:
    """The generated training rows and labels (held by the benchmark only)."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    n_features: int

    def margins(self, weights: np.ndarray) -> np.ndarray:
        """``X w`` computed with numpy (the output checks' reference)."""
        return np.add.reduceat(self.values * weights[self.indices], self.indptr[:-1])


def _planted(seed: int, shape: DataShape) -> Tuple[np.ndarray, np.ndarray]:
    """The seed's feature-popularity permutation and planted weights."""
    rng = np.random.default_rng([int(seed), 0])
    return rng.permutation(shape.n_features), rng.standard_normal(shape.n_features)


def _labels(rng: np.random.Generator, margins: np.ndarray) -> np.ndarray:
    flip = rng.random(margins.size) < LABEL_NOISE
    return np.where((margins >= 0) ^ flip, 1.0, -1.0)


def make_training_set(seed: int, shape: DataShape = DATA_SHAPE) -> TrainingSet:
    """The seeded training set: rows, ±1 labels from a planted model."""
    perm, w_true = _planted(seed, shape)
    rng = np.random.default_rng([int(seed), 1])
    indptr, cols, vals = _rows(rng, shape.n_rows, shape, perm)
    # Make the loaded dimension exactly d: load_libsvm infers it from the
    # largest index present, so the last row carries feature d - 1.
    if cols[indptr[-2] : indptr[-1]].max() != shape.n_features - 1:
        cols[indptr[-1] - 1] = shape.n_features - 1
    data = TrainingSet(indptr, cols, vals, np.empty(0), shape.n_features)
    data.labels = _labels(rng, data.margins(w_true))
    return data


def write_libsvm(data: TrainingSet, path: Path) -> None:
    """Write ``data`` in LibSVM format (1-based indices, ``%.17g`` values)."""
    tokens = np.char.add(
        np.char.add((data.indices + 1).astype(str), ":"),
        np.char.mod("%.17g", data.values),
    )
    with open(path, "w") as handle:
        for i in range(data.labels.size):
            row = tokens[data.indptr[i] : data.indptr[i + 1]]
            handle.write("%d %s\n" % (data.labels[i], " ".join(row.tolist())))


@dataclass
class QueryStream:
    """Query ``k`` is row ``order[k]`` of a flat CSR pool of distinct rows."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray     # planted-model label of each pool row
    order: np.ndarray      # pool row of each query, in submission order

    def __len__(self) -> int:
        return self.order.size

    def row(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        p = self.order[k]
        lo, hi = self.indptr[p], self.indptr[p + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def margins(self, weights: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Reference margins ``<x_k, w>`` of ``queries``, computed with numpy."""
        rows = self.order[queries]
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        offsets = np.cumsum(lengths) - lengths
        pos = np.arange(lengths.sum()) - np.repeat(offsets - starts, lengths)
        per_entry = self.values[pos] * weights[self.indices[pos]]
        sums = np.add.reduceat(per_entry, offsets) if per_entry.size else per_entry
        return np.where(lengths > 0, sums, 0.0)


#: Rows generated per chunk (bounds the generator's temporary memory).
_CHUNK = 50_000


def make_queries(seed: int, count: int, *, popular: int = 0, shape: DataShape = DATA_SHAPE) -> QueryStream:
    """``count`` queries drawn like the training rows, labelled by the planted model.

    ``popular == 0`` gives distinct rows (no row repeats).  Otherwise the
    queries draw from a pool of ``popular`` distinct rows with Zipf
    weights ``1 / rank``, so most queries repeat a row seen shortly before;
    the seed decides which rows are popular, not how popular they are.
    """
    perm, w_true = _planted(seed, shape)
    rng = np.random.default_rng([int(seed), 2, int(popular)])
    pool = popular or count
    # Filled chunk by chunk into buffers sized for the longest possible
    # rows; the unused tail is never touched, so it never becomes resident.
    longest = shape.nnz_per_row + shape.nnz_per_row // 2
    indptr = np.zeros(pool + 1, dtype=np.int64)
    cols = np.empty(pool * longest, dtype=np.int32)
    vals = np.empty(pool * longest, dtype=np.float64)
    for lo in range(0, pool, _CHUNK):
        ptr, c, v = _rows(rng, min(_CHUNK, pool - lo), shape, perm)
        base = indptr[lo]
        indptr[lo + 1 : lo + ptr.size] = ptr[1:] + base
        cols[base : base + c.size] = c
        vals[base : base + c.size] = v
    cols, vals = cols[: indptr[-1]], vals[: indptr[-1]]
    labels = _labels(rng, np.add.reduceat(vals * w_true[cols], indptr[:-1]))
    if popular:
        weights = 1.0 / np.arange(1, popular + 1)
        order = rng.permutation(popular)[rng.choice(popular, size=count, p=weights / weights.sum())]
    else:
        order = np.arange(count)
    return QueryStream(indptr, cols, vals, labels, order)


def republished_weights(seed: int, base: np.ndarray, versions: int) -> list:
    """``versions`` weight vectors republished over ``base`` during serve-hot.

    Each is the trained model with a seeded multiplicative perturbation, so
    every version scores every query differently and a response scored by
    the wrong version fails the check.
    """
    rng = np.random.default_rng([int(seed), 3])
    return [base * (1.0 + 0.05 * rng.standard_normal(base.size)) for _ in range(versions)]
