"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper on the
*smoke-scale* surrogate datasets so the whole suite runs in a few minutes;
``repro.experiments.configs.figure_config(smoke=False, thread_counts=(16, 32, 44))``
reproduces the full-scale sweep when more time is available.

Every benchmark writes its rendered rows/series to ``benchmarks/results/``
so the output can be inspected and recorded in EXPERIMENTS.md.  A test
run writes nothing else, so it leaves the committed root ``BENCH_*.json``
alone; refresh one by copying its ``benchmarks/results/`` counterpart.
"""

from __future__ import annotations

import math
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.async_engine.cost_model import CostModel
from repro.experiments.configs import figure_config
from repro.experiments.runner import ExperimentRunner

#: Thread counts used by the benchmark sweep (scaled-down analogue of the
#: paper's {16, 32, 44}).
BENCH_THREADS = (4, 8, 16)

RESULTS_DIR = Path(__file__).parent / "results"


def bench_environment() -> dict:
    """Provenance block shared by every ``BENCH_*.json`` writer.

    Records which kernel backend produced the numbers and on what machine,
    so recorded perf points stay comparable across PRs and runners.
    """
    from repro.cluster import available_parallelism
    from repro.kernels import default_backend_name, native_status

    return {
        "kernel_backend": default_backend_name(),
        "native_backend_status": native_status(),
        "cpu_count": os.cpu_count(),
        "available_parallelism": available_parallelism(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def best_of_alternating(calls: Dict[str, Callable[[], object]], rounds: int = 5) -> Dict[str, float]:
    """Best-of-``rounds`` wall-clock seconds of each call, timed in alternation.

    Every call runs once as a warm-up, then each round calls them once in
    order.  A slow spell of the host then falls on every side of a
    comparison instead of on one side's block of repeats.
    """
    for fn in calls.values():
        fn()
    best = {name: math.inf for name in calls}
    for _ in range(rounds):
        for name, fn in calls.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def write_result(name: str, text: str) -> Path:
    """Persist a rendered benchmark artefact under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def cost_model() -> CostModel:
    """One shared cost model so all solvers are priced identically."""
    return CostModel()


@pytest.fixture(scope="session")
def figure_runner(cost_model) -> ExperimentRunner:
    """The full (smoke-scale) sweep behind Figures 3, 4 and 5.

    Session-scoped: the sweep is executed once and reused by every
    figure/headline benchmark.
    """
    config = figure_config(smoke=True, thread_counts=BENCH_THREADS, include_svrg_asgd=True)
    runner = ExperimentRunner(config, cost_model=cost_model)
    runner.run()
    return runner
