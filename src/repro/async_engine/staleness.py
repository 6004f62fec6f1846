"""Staleness (delay) models.

The delay parameter τ is "the maximum lag between when a gradient is
computed and when it is applied" and is assumed to be linearly related to
the concurrency (Section 3.1).  The simulators draw a per-iteration delay
from one of the models below; the default :class:`UniformDelay` with
``max_delay = num_workers - 1`` (``num_workers`` for IS-ASGD) matches that
assumption.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np


class StalenessModel(ABC):
    """Interface: draw how many recent updates a read misses."""

    #: The largest delay the model can produce (used to size the history).
    max_delay: int = 0

    @abstractmethod
    def draw_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Sample the delays (missed updates) of ``size`` reads (``int64`` array).

        The simulators draw one epoch's delays in one call.  NumPy draws
        array elements sequentially, so one call of any size consumes the
        ``Generator`` bit stream exactly as the same draws split over
        several calls would.
        """

    def expected_delay(self) -> float:
        """Expected delay (used by reports); subclasses may override."""
        return float(self.max_delay) / 2.0


class ConstantDelay(StalenessModel):
    """Every read misses exactly ``delay`` updates (worst-case style)."""

    def __init__(self, delay: int) -> None:
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.max_delay = int(delay)

    def draw_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.max_delay, dtype=np.int64)

    def expected_delay(self) -> float:
        return float(self.max_delay)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantDelay({self.max_delay})"


class UniformDelay(StalenessModel):
    """Delay drawn uniformly from ``{0, 1, ..., max_delay}``."""

    def __init__(self, max_delay: int) -> None:
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self.max_delay = int(max_delay)

    def draw_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.max_delay == 0:
            return np.zeros(size, dtype=np.int64)
        return rng.integers(0, self.max_delay + 1, size=size, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformDelay({self.max_delay})"


class GeometricDelay(StalenessModel):
    """Geometrically distributed delay truncated at ``max_delay``.

    Models the empirical observation that most reads are nearly fresh while
    a few are very stale (heavy scheduling jitter).
    """

    def __init__(self, max_delay: int, mean_delay: Optional[float] = None) -> None:
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self.max_delay = int(max_delay)
        if mean_delay is None:
            mean_delay = max(max_delay / 4.0, 1e-9)
        if mean_delay <= 0:
            raise ValueError("mean_delay must be positive")
        self.mean_delay = float(mean_delay)
        self._p = 1.0 / (1.0 + self.mean_delay)

    def draw_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.max_delay == 0:
            return np.zeros(size, dtype=np.int64)
        # numpy's geometric counts trials >= 1; shift to start at 0.
        values = rng.geometric(self._p, size=size).astype(np.int64) - 1
        return np.minimum(values, self.max_delay)

    def expected_delay(self) -> float:
        return min(self.mean_delay, float(self.max_delay))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GeometricDelay(max={self.max_delay}, mean={self.mean_delay:.2f})"


__all__ = [
    "StalenessModel",
    "ConstantDelay",
    "UniformDelay",
    "GeometricDelay",
]
