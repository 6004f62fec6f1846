"""Wall-clock timing of a callable.

Used to calibrate the simulated cost model against real measured
per-operation costs and by the micro-benchmarks.
"""

from __future__ import annotations

import time
from typing import Callable


def measure_call(fn: Callable[[], object], repeats: int = 5, warmup: int = 1) -> float:
    """Return the best-of-``repeats`` wall-clock time of calling ``fn()``.

    The minimum over repeats is the standard robust estimator for
    micro-benchmarks because interference only ever adds time.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(max(0, warmup)):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


__all__ = ["measure_call"]
