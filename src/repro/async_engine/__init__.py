"""Asynchronous execution substrate.

CPython's GIL makes genuine lock-free numeric threads impossible, so the
library reproduces asynchrony at two levels:

* :mod:`repro.async_engine.simulator` — a deterministic perturbed-iterate
  simulator: workers interleave their iterations, every read may be stale by
  up to ``τ`` updates (exactly the model the paper's Section 3 analysis
  uses), and per-coordinate conflicts are accounted explicitly.  All the
  figures are produced on this engine.
* :mod:`repro.async_engine.batched` — the macro-step fast path: the same
  randomised schedule executed in blocks through the kernel backend's batch
  primitives, with the per-sample conflict/staleness accounting replayed
  exactly.  Selected per solver (``async_mode="batched"``) or process-wide
  via ``REPRO_ASYNC_MODE`` (resolved by :mod:`repro.runtime`); the
  per-sample simulator remains the ground truth it is pinned against.

Genuine lock-free concurrency runs on separate processes instead
(``async_mode="process"``, :mod:`repro.cluster`).

:mod:`repro.async_engine.cost_model` converts execution traces (counts of
sparse/dense operations and conflicts) into simulated wall-clock seconds,
which is how the absolute-convergence experiments (Figures 4-5) are
regenerated.
"""

from repro.async_engine.shared_model import SharedModel, UpdateRecord
from repro.async_engine.staleness import (
    ConstantDelay,
    GeometricDelay,
    StalenessModel,
    UniformDelay,
)
from repro.async_engine.worker import SimulatedWorker
from repro.async_engine.events import EpochEvent, IterationEvent
from repro.async_engine.simulator import AsyncSimulator
from repro.async_engine.batched import BatchedSimulator
from repro.async_engine.cost_model import CostModel, CostParameters

__all__ = [
    "BatchedSimulator",
    "SharedModel",
    "UpdateRecord",
    "StalenessModel",
    "UniformDelay",
    "ConstantDelay",
    "GeometricDelay",
    "SimulatedWorker",
    "EpochEvent",
    "IterationEvent",
    "AsyncSimulator",
    "CostModel",
    "CostParameters",
]
