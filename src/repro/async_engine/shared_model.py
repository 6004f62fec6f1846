"""The shared parameter vector with staleness-aware reads.

:class:`SharedModel` is the simulated analogue of the lock-free shared model
of Hogwild: writers apply index-compressed updates immediately, and readers
may observe a *perturbed* state ``ŵ_t = w_t + θ_t`` in which the most recent
``delay`` updates are missing (perturbed-iterate model, Mania et al. 2017 /
Section 3.1 of the paper).  The model keeps a bounded history of recent
updates so a stale read can be reconstructed exactly, and counts
per-coordinate conflicts (a read that missed a concurrent write on the same
coordinate).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

import numpy as np


@dataclass
class UpdateRecord:
    """One applied update: who wrote it, where and by how much."""

    version: int
    worker_id: int
    indices: np.ndarray
    deltas: np.ndarray


class SharedModel:
    """A shared weight vector supporting stale reads and conflict accounting.

    Parameters
    ----------
    dim:
        Length of the weight vector.
    history:
        Maximum number of recent updates retained for reconstructing stale
        reads; it must be at least the largest delay the staleness model can
        request.
    initial:
        Optional initial weights (copied); zeros by default.
    """

    def __init__(self, dim: int, *, history: int = 256, initial: Optional[np.ndarray] = None) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        if history < 0:
            raise ValueError("history must be >= 0")
        self.dim = int(dim)
        self.history = int(history)
        if initial is not None:
            initial = np.ascontiguousarray(initial, dtype=np.float64)
            if initial.shape != (self.dim,):
                raise ValueError(f"initial must have shape ({self.dim},), got {initial.shape}")
            self._w = initial.copy()
        else:
            self._w = np.zeros(self.dim, dtype=np.float64)
        self.version = 0
        self._updates: Deque[UpdateRecord] = deque(maxlen=self.history if self.history else 1)
        self.history_overflow = 0

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def read_stale(self, indices: np.ndarray, delay: int, *, writer_id: Optional[int] = None) -> Tuple[np.ndarray, int]:
        """Read ``w[indices]`` as it was ``delay`` updates ago.

        The read reconstructs the perturbed iterate by *undoing* the most
        recent ``delay`` updates on the requested coordinates.  Updates
        written by ``writer_id`` itself are never undone — a worker always
        sees its own writes (the standard asynchronous consistency model).

        Returns
        -------
        (values, conflicts):
            The (possibly stale) coordinate values and the number of undone
            updates that actually touched the requested coordinates, i.e.
            the conflicts this read suffered.

        Notes
        -----
        A requested ``delay`` larger than the retained history is clamped
        *explicitly*: when records the reconstruction needed have already
        been evicted from the bounded history (as opposed to simply not
        having happened yet), the truncation is counted in
        :attr:`history_overflow` instead of passing silently — the
        simulators surface that counter on the execution trace.
        """
        values = self._w[indices].copy()
        requested = int(max(delay, 0))
        available = len(self._updates)
        delay = min(requested, available)
        if indices.size and requested > available and self.version > available:
            # Evicted records, not merely a short run: the reconstructed
            # window is genuinely truncated.
            self.history_overflow += 1
        if delay == 0 or indices.size == 0:
            return values, 0
        conflicts = 0
        # Walk the most recent `delay` updates and subtract their effect on
        # the coordinates being read.
        recent = list(self._updates)[-delay:]
        # Positions of the requested indices for O(1) membership tests.
        pos = {int(ix): k for k, ix in enumerate(indices)}
        for record in recent:
            if writer_id is not None and record.worker_id == writer_id:
                continue
            hit = False
            for ix, dv in zip(record.indices, record.deltas):
                k = pos.get(int(ix))
                if k is not None:
                    values[k] -= dv
                    hit = True
            if hit:
                conflicts += 1
        return values, conflicts

    def snapshot(self) -> np.ndarray:
        """A copy of the full current weight vector."""
        return self._w.copy()

    @property
    def weights(self) -> np.ndarray:
        """The live weight buffer (mutable; handle with care)."""
        return self._w

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def apply_update(self, indices: np.ndarray, deltas: np.ndarray, *, worker_id: int = 0) -> int:
        """Apply the index-compressed update ``w[indices] += deltas``.

        Returns the new model version.  The update is recorded in the
        bounded history so later stale reads can reconstruct earlier states.
        """
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        deltas = np.ascontiguousarray(deltas, dtype=np.float64)
        if indices.shape != deltas.shape:
            raise ValueError("indices and deltas must have identical shapes")
        if indices.size:
            np.add.at(self._w, indices, deltas)
        self.version += 1
        if self.history:
            self._updates.append(
                UpdateRecord(version=self.version, worker_id=worker_id, indices=indices, deltas=deltas)
            )
        return self.version

    def apply_dense_update(self, delta: np.ndarray, *, worker_id: int = 0) -> int:
        """Apply a dense update ``w += delta`` (used by SVRG-style solvers)."""
        delta = np.ascontiguousarray(delta, dtype=np.float64)
        if delta.shape != (self.dim,):
            raise ValueError(f"delta must have shape ({self.dim},), got {delta.shape}")
        self._w += delta
        self.version += 1
        if self.history:
            idx = np.nonzero(delta)[0].astype(np.int64)
            self._updates.append(
                UpdateRecord(version=self.version, worker_id=worker_id, indices=idx, deltas=delta[idx])
            )
        return self.version

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedModel(dim={self.dim}, version={self.version})"


__all__ = ["SharedModel", "UpdateRecord"]
