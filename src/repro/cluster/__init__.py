"""Multi-process sharded parameter-server execution tier.

The first execution path in the repository where throughput scales with
physical cores: one weight vector lives in ``multiprocessing.shared_memory``
in global coordinate order, real OS processes apply lock-free
index-compressed updates to it through the kernel batch primitives, and
the driver folds *measured* staleness/conflict/occupancy counters into the
same trace records the perturbed-iterate simulator emits.

The tier is elastic and fault-tolerant: the driver checkpoints a
consistent cut of the run at every epoch barrier
(:mod:`repro.cluster.checkpoint`), replaces workers that die mid-epoch by
respawning the fleet from the last checkpoint, resumes a checkpoint at any
fleet size, and mitigates stragglers by work-stealing across the
per-worker block queues when the measured
:func:`~repro.cluster.cost_model.work_skew` warrants it.

Selected per solver with ``async_mode="process"`` (or globally via
``REPRO_ASYNC_MODE=process``); see ``docs/cluster.md``.
"""

from repro.cluster.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointStore,
    ClusterCheckpoint,
)
from repro.cluster.cost_model import compare_traces, occupancy_skew, work_skew
from repro.cluster.driver import (
    ClusterDriver,
    ClusterRunResult,
    WorkerFailure,
    available_parallelism,
    default_start_method,
)
from repro.cluster.shm import ArenaSpec, ShmArena

__all__ = [
    "ClusterDriver",
    "ClusterRunResult",
    "WorkerFailure",
    "CheckpointStore",
    "ClusterCheckpoint",
    "CHECKPOINT_FORMAT_VERSION",
    "compare_traces",
    "occupancy_skew",
    "work_skew",
    "ShmArena",
    "ArenaSpec",
    "available_parallelism",
    "default_start_method",
]
