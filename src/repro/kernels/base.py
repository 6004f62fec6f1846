"""Abstract compute-kernel backend.

A :class:`KernelBackend` bundles every numeric primitive the solvers,
objectives and metrics need into one swappable object:

* CSR linear algebra — full and subset matrix-vector products
  (:meth:`matvec`, :meth:`margins`);
* gathered-row batch primitives — :meth:`segment_margins` and the
  scatter-add of per-entry deltas (:meth:`scatter_add`);
* the per-sample hot path — the fused :meth:`sample_update` that one
  SGD-style iteration consists of, and the block primitives
  :meth:`run_sample_block` / :meth:`run_frozen_block` that execute a whole
  schedule block of such steps in one call, and :meth:`run_shared_block`,
  a process worker's frozen-margin block on the cluster's shared weights;
* the one-pass metrics evaluation :meth:`evaluate`, built on the
  :class:`~repro.objectives.base.Objective` batch API.

Three implementations ship with the library: the ``reference`` backend
keeps the original per-sample Python-loop semantics as ground truth, the
``vectorized`` backend replaces every batched quantity with NumPy segment
operations over the raw CSR arrays, and the ``native`` backend (the
default: built on first use with a C compiler, falling back to
``vectorized`` otherwise) executes the hot loops as compiled C.  The
registry-driven parity suite in ``tests/kernels/test_parity.py`` pins
every backend to the reference.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.objectives.base import Objective


def check_segments(idx: np.ndarray, val: np.ndarray, lengths: np.ndarray) -> None:
    """Reject a gathered-rows layout whose ``lengths`` do not tile ``idx``/``val``.

    ``lengths`` must be non-negative and sum to ``idx.size == val.size``.
    Every kernel's segment primitives call this first, so no backend reads
    past the flat arrays or silently drops the entries a short ``lengths``
    leaves uncovered.
    """
    if lengths.size and lengths.min() < 0:
        raise ValueError("lengths must be non-negative")
    total = int(lengths.sum())
    if not total == idx.size == val.size:
        raise ValueError(
            f"lengths sum to {total}, but idx has {idx.size} entries and val {val.size}"
        )


@dataclass
class MetricsEval:
    """Result of one full-dataset metrics evaluation."""

    rmse: float
    error_rate: float


class KernelBackend(ABC):
    """Pluggable numeric core shared by solvers, objectives and metrics."""

    #: Registry name of the backend.
    name: str = "base"

    #: Whether the backend executes :meth:`run_sample_block` /
    #: :meth:`run_frozen_block` as one fused native call instead of the
    #: generic per-sample Python loop, and provides :meth:`run_shared_block`.
    #: Engines use this to decide whether handing a whole schedule block to
    #: the kernel is worthwhile; the default loop below keeps
    #: :meth:`run_sample_block` available (and bit-equal to the historical
    #: per-step loop) on every backend either way.
    fused_sample_block: bool = False

    def supports_objective(self, obj: "Objective") -> bool:
        """Whether the fused block primitives can dispatch ``obj`` natively.

        Only meaningful when :attr:`fused_sample_block` is true; the
        generic backends answer ``False`` so callers always take the
        composable per-step path.
        """
        return False

    # ------------------------------------------------------------------ #
    # CSR linear algebra
    # ------------------------------------------------------------------ #
    @abstractmethod
    def matvec(self, X: CSRMatrix, w: np.ndarray) -> np.ndarray:
        """All-rows margins ``X @ w`` as a dense length-``n`` vector."""

    @abstractmethod
    def margins(
        self, X: CSRMatrix, w: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Margins ``<x_i, w>`` for ``rows`` (all rows when ``None``)."""

    # ------------------------------------------------------------------ #
    # Gathered-row (pre-sliced CSR) batch primitives
    # ------------------------------------------------------------------ #
    def segment_margins(
        self, idx: np.ndarray, val: np.ndarray, lengths: np.ndarray, w: np.ndarray
    ) -> np.ndarray:
        """Margins of already-gathered rows: ``out[t] = Σ_k val_t[k] * w[idx_t[k]]``.

        ``(idx, val, lengths)`` is the flat layout produced by
        :meth:`CSRMatrix.gather_rows`; callers that already hold the gathered
        arrays (the batched async engine) use this instead of :meth:`margins`
        to avoid a second gather.  The generic implementation loops over the
        segments; backends override it with segment reductions.
        """
        check_segments(idx, val, lengths)
        out = np.zeros(lengths.size, dtype=np.float64)
        start = 0
        for t, length in enumerate(lengths):
            stop = start + int(length)
            if stop > start:
                out[t] = float(np.dot(val[start:stop], w[idx[start:stop]]))
            start = stop
        return out

    def scatter_add(self, w: np.ndarray, idx: np.ndarray, weights: np.ndarray) -> None:
        """In-place scatter-add ``w[idx] += weights`` with repeated indices.

        ``idx`` is a flat (gathered) column-index array that may contain
        duplicates across rows; every entry must be accumulated.  This is the
        write half of a batched macro-step: compute per-entry deltas, then
        fold the whole block into the model with one call.
        """
        if idx.size:
            np.add.at(w, idx, weights)

    # ------------------------------------------------------------------ #
    # Per-sample hot path
    # ------------------------------------------------------------------ #
    @abstractmethod
    def sample_update(
        self, w: np.ndarray, obj: "Objective", X: CSRMatrix, i: int, y_i: float, scale: float
    ) -> int:
        """One fused SGD-style step ``w += scale * ∇f_i(w)``; returns ``nnz(x_i)``."""

    def run_sample_block(
        self,
        w: np.ndarray,
        obj: "Objective",
        X: CSRMatrix,
        y: np.ndarray,
        rows: np.ndarray,
        scales: np.ndarray,
    ) -> int:
        """Fused sequential per-sample loop over one schedule block.

        Executes ``rows.size`` consecutive SGD-style steps — row margin →
        scalar loss derivative → in-place row update ``w += scales[t] *
        ∇f_{rows[t]}(w)`` — and returns the total ``nnz`` touched.  Step
        ``t`` observes every earlier step's writes, exactly as the
        per-step :meth:`sample_update` loop it replaces; the generic
        implementation *is* that loop, so routing an epoch body through
        this primitive never changes semantics.  Backends with a native
        fused loop (see :attr:`fused_sample_block`) override it to execute
        the whole block in one call.
        """
        total = 0
        for t in range(rows.size):
            i = int(rows[t])
            total += self.sample_update(w, obj, X, i, float(y[i]), float(scales[t]))
        return total

    def run_frozen_block(
        self,
        w: np.ndarray,
        obj: "Objective",
        idx: np.ndarray,
        val: np.ndarray,
        lengths: np.ndarray,
        y_rows: np.ndarray,
        scales: np.ndarray,
    ) -> int:
        """Fused frozen-margin macro-step over already-gathered rows.

        The one-call equivalent of the batched engine's
        :meth:`segment_margins` → entry-weight → :meth:`scatter_add`
        sequence for SGD-style rules: all margins are evaluated at the
        block-start iterate (and the separable regulariser at the
        block-start coordinates), then every per-entry delta
        ``scales[t] * (phi'(m_t) * val + ∇r(w)|_supp)`` is accumulated in
        gather order.  Only backends advertising
        :attr:`fused_sample_block` implement it; engines must keep the
        composable path for everything else.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not provide a fused frozen-block primitive"
        )

    def run_shared_block(
        self,
        w: np.ndarray,
        obj: "Objective",
        X: CSRMatrix,
        y: np.ndarray,
        rows: np.ndarray,
        scales: np.ndarray,
        *,
        worker_id: int,
        t_read: int,
        progress: np.ndarray,
        last_writer: np.ndarray,
        write_clock: np.ndarray,
        range_bounds: np.ndarray,
        range_writes: np.ndarray,
    ) -> Tuple[int, int, int]:
        """One process worker's frozen-margin block on shared weights.

        The one-call equivalent of the cluster worker's composable block
        (:func:`repro.cluster.worker.composable_block`) for SGD-style rules,
        in its order: every margin of ``X``'s ``rows`` and every per-entry
        delta ``scales[t] * (phi'(m_t) * val + ∇r(w)|_supp)`` at the live
        block-start iterate; then ``t_write = progress.sum()``; then the
        conflicts, the rows with a coordinate whose ``last_writer`` is
        another worker (neither ``worker_id`` nor -1) and whose
        ``write_clock`` exceeds ``t_read``; then the scatter into ``w``;
        then the stamps ``write_clock = t_write`` and ``last_writer =
        worker_id`` and, per entry, one count in ``range_writes`` at the
        coordinate range ``range_bounds`` (non-decreasing, from 0 to
        ``w.size``) puts it in.  Returns ``(t_write, conflicts, nnz)``.
        Only backends advertising :attr:`fused_sample_block` implement it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not provide a fused shared-block primitive"
        )

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    @abstractmethod
    def evaluate(
        self, obj: "Objective", X: CSRMatrix, y: np.ndarray, w: np.ndarray
    ) -> MetricsEval:
        """RMSE and error rate of ``w`` on ``(X, y)`` in one pass."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


__all__ = ["KernelBackend", "MetricsEval", "check_segments"]
