"""Execution backends: one contract, three interchangeable tiers.

This module is the runtime layer's registry and the one place an execution
tier is named and resolved.  An :class:`ExecutionBackend` turns an
:class:`ExecutionRequest` — "this data, this partition, this update rule,
this many epochs" — into an :class:`ExecutionResult`, and advertises what
it can do through :class:`BackendCapabilities`.  The asynchronous solvers
are pure request builders: they declare *what* to run (rule + sampler +
partition) and the registry decides *how* (which engine, with which trace
guarantees), so adding a solver touches no engine and adding an engine
touches no solver.

The backends (every one runs every :mod:`repro.rules` rule):

====================  ==========================================================
``per_sample``        trace-exact ground-truth simulator (one Python iteration
                      per update) — the reference every other tier is pinned to
``batched``           macro-step fast path through the kernel batch primitives
``process``           multi-process sharded parameter server, measured
                      wall-clock (:mod:`repro.cluster`)
====================  ==========================================================

An ``async_mode`` of ``None`` resolves to the ``REPRO_ASYNC_MODE``
environment variable, else :data:`DEFAULT_ASYNC_MODE` (``per_sample``, the
trace-exact ground truth).

Requesting an unknown rule or backend name raises immediately with the
full list of valid choices — failures surface at dispatch, not deep inside
an engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.utils.rng import RandomState

#: Environment variable consulted when no explicit mode is configured.
ASYNC_MODE_ENV_VAR = "REPRO_ASYNC_MODE"

#: The built-in default execution mode.
DEFAULT_ASYNC_MODE = "per_sample"


@dataclass(frozen=True)
class BackendCapabilities:
    """What an execution backend guarantees (surfaced by ``repro list``).

    Attributes
    ----------
    name:
        Registry name (the ``async_mode`` value selecting this backend).
    description:
        One-line description for registries and generated docs.
    supports_batching:
        Whether the tier executes macro-steps through the kernel batch
        primitives (and honours ``batch_size``).
    true_parallelism:
        Whether throughput scales with physical cores.
    measured_wall_clock:
        Whether the result carries measured seconds (otherwise the cost
        model prices the trace).
    deterministic:
        Whether one seed reproduces the run bit-for-bit (real concurrency
        is scheduled by the OS and is validated by tolerance instead).
    fused_kernel_loop:
        Whether the tier hands whole schedule blocks to the kernel's fused
        block primitives (``run_sample_block`` / ``run_frozen_block``) when
        the active backend provides them (the ``native`` kernel), instead
        of iterating per sample in Python.
    fault_tolerant:
        Whether the tier survives worker death mid-run: consistent
        checkpoints at every epoch barrier, automatic fleet replacement
        and replay from the last checkpoint (see ``docs/cluster.md``).
    """

    name: str
    description: str
    supports_batching: bool
    true_parallelism: bool
    measured_wall_clock: bool
    deterministic: bool
    fused_kernel_loop: bool = False
    fault_tolerant: bool = False

    def as_row(self) -> Dict[str, Any]:
        """Flat JSON-friendly row for capability matrices."""
        return {
            "backend": self.name,
            "description": self.description,
            "supports_batching": self.supports_batching,
            "true_parallelism": self.true_parallelism,
            "measured_wall_clock": self.measured_wall_clock,
            "deterministic": self.deterministic,
            "fused_kernel_loop": self.fused_kernel_loop,
            "fault_tolerant": self.fault_tolerant,
        }


@dataclass
class ExecutionRequest:
    """Everything a backend needs to run one training job.

    Built by the solvers from their configuration; deliberately free of any
    engine-specific object so the same request can be handed to any
    backend.  A backend calls ``epoch_callback`` (when set) exactly once
    per completed epoch, in order, with ``(epoch, weights)``; ``weights``
    is a copy the callee may keep.
    """

    X: Any                                  # CSRMatrix
    y: np.ndarray
    objective: Any                          # repro Objective
    partition: Any                          # core.partition.Partition
    rule: str                               # repro.rules name
    step_size: float
    epochs: int
    engine_seed: RandomState = 0            # schedule/delay/process seed
    worker_seed: int = 0                    # simulated-worker sequence seed
    importance_sampling: bool = False
    step_clip: float = 100.0
    staleness: Any = None                   # Optional[StalenessModel]
    batch_size: Union[int, str] = "auto"
    kernel: Any = None                      # resolved KernelBackend (or name/None)
    initial_weights: Optional[np.ndarray] = None
    reshuffle: bool = True
    regenerate: bool = False
    iterations_per_worker: Optional[int] = None
    epoch_callback: Optional[Callable[[int, np.ndarray], None]] = None

    def build_rule(self):
        """Instantiate the requested update rule."""
        from repro.rules import make_rule

        return make_rule(self.rule, self.objective, self.step_size)

    def build_workers(self):
        """One :class:`SimulatedWorker` per shard (simulated tiers only)."""
        from repro.async_engine.worker import build_workers

        return build_workers(
            self.partition,
            self.resolved_iterations_per_worker(),
            step_clip=self.step_clip,
            seed=self.worker_seed,
            importance_sampling=self.importance_sampling,
        )

    def resolved_iterations_per_worker(self) -> int:
        """Per-worker inner iterations (defaults to ``n / num_workers``)."""
        if self.iterations_per_worker is not None:
            return max(1, int(self.iterations_per_worker))
        return max(1, self.X.n_rows // max(self.partition.num_workers, 1))

    def resolved_staleness(self):
        """The delay model (defaults to ``UniformDelay(num_workers - 1)``)."""
        if self.staleness is not None:
            return self.staleness
        from repro.async_engine.staleness import UniformDelay

        return UniformDelay(max(self.partition.num_workers - 1, 0))


@dataclass
class ExecutionResult:
    """What every backend returns: final weights, trace, optional measured time."""

    weights: np.ndarray
    trace: Any                              # ExecutionTrace
    wall_clock: Optional[np.ndarray] = None  # measured cumulative seconds, or None
    info: Dict[str, Any] = field(default_factory=dict)


class ExecutionBackend:
    """Base class of the execution tiers (the backend contract).

    Subclasses define :attr:`capabilities` and :meth:`run`; everything else
    (resolution, validation, capability display) is registry machinery.
    """

    capabilities: BackendCapabilities

    def run(self, request: ExecutionRequest) -> ExecutionResult:
        """Execute the request and return the result."""
        raise NotImplementedError


# --------------------------------------------------------------------- #
# The built-in tiers
# --------------------------------------------------------------------- #
class PerSampleBackend(ExecutionBackend):
    """Ground truth: one Python-level iteration per update, trace-exact."""

    capabilities = BackendCapabilities(
        name="per_sample",
        description="trace-exact ground-truth simulator, one Python iteration per update",
        supports_batching=False,
        true_parallelism=False,
        measured_wall_clock=False,
        deterministic=True,
    )

    def _engine(self, request: ExecutionRequest):
        """The simulator class and its tier-specific constructor kwargs."""
        from repro.async_engine.simulator import AsyncSimulator

        return AsyncSimulator, {}

    def run(self, request: ExecutionRequest) -> ExecutionResult:
        engine, engine_kwargs = self._engine(request)
        workers = request.build_workers()
        staleness = request.resolved_staleness()
        simulator = engine(
            X=request.X,
            y=request.y,
            workers=workers,
            update_rule=request.build_rule(),
            staleness=staleness,
            seed=request.engine_seed,
            kernel=request.kernel,
            epoch_callback=request.epoch_callback,
            **engine_kwargs,
        )
        result = simulator.run(
            request.epochs,
            initial_weights=request.initial_weights,
            reshuffle=request.reshuffle,
            regenerate=request.regenerate,
        )
        result.info = {
            "async_mode": self.capabilities.name,
            "max_delay": staleness.max_delay,
            "conflict_rate": result.trace.conflict_rate(),
        }
        return result


class BatchedBackend(PerSampleBackend):
    """Macro-step fast path through the kernel batch primitives."""

    capabilities = BackendCapabilities(
        name="batched",
        description="macro-step fast path through the kernel batch primitives (trace bit-equal)",
        supports_batching=True,
        true_parallelism=False,
        measured_wall_clock=False,
        deterministic=True,
        fused_kernel_loop=True,
    )

    def _engine(self, request: ExecutionRequest):
        from repro.async_engine.batched import BatchedSimulator

        return BatchedSimulator, {"batch_size": request.batch_size}


class ProcessBackend(ExecutionBackend):
    """Multi-process sharded parameter server with measured wall-clock."""

    capabilities = BackendCapabilities(
        name="process",
        description="multi-process sharded parameter server with measured wall-clock",
        supports_batching=True,
        true_parallelism=True,
        measured_wall_clock=True,
        deterministic=False,
        fault_tolerant=True,
    )

    def run(self, request: ExecutionRequest) -> ExecutionResult:
        from repro.cluster import ClusterDriver
        from repro.kernels.registry import resolve_backend

        driver = ClusterDriver(
            request.X,
            request.y,
            request.objective,
            request.partition,
            step_size=request.step_size,
            importance_sampling=request.importance_sampling,
            step_clip=request.step_clip,
            rule=request.rule,
            batch_size=request.batch_size,
            kernel_name=resolve_backend(request.kernel).name,
            seed=request.engine_seed,
            epoch_callback=request.epoch_callback,
        )
        run = driver.run(request.epochs, initial_weights=request.initial_weights)
        info = {
            "async_mode": self.capabilities.name,
            "conflict_rate": run.trace.conflict_rate(),
        }
        info.update(run.info)
        return ExecutionResult(
            weights=run.weights,
            trace=run.trace,
            wall_clock=run.wall_clock,
            info=info,
        )


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
_BACKENDS: Dict[str, ExecutionBackend] = {
    "per_sample": PerSampleBackend(),
    "batched": BatchedBackend(),
    "process": ProcessBackend(),
}


def available_backend_names() -> List[str]:
    """Backend names in canonical order (``per_sample`` first)."""
    return list(_BACKENDS)


def get_backend(name: str) -> ExecutionBackend:
    """Look up a backend by name; unknown names list the valid ones."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown async mode {name!r}; available: "
            f"{', '.join(available_backend_names())}"
        ) from None


def capability_matrix() -> List[Dict[str, Any]]:
    """One JSON-friendly row per backend (CLI / docs)."""
    return [backend.capabilities.as_row() for backend in _BACKENDS.values()]


def default_async_mode() -> str:
    """The mode the process resolves ``async_mode=None`` to."""
    env = os.environ.get(ASYNC_MODE_ENV_VAR, "").strip()
    if env:
        return resolve_async_mode(env)
    return DEFAULT_ASYNC_MODE


def resolve_async_mode(mode: Optional[str]) -> str:
    """Normalise an ``async_mode`` argument (name or ``None``) to a mode name.

    Unknown names raise with the list of valid modes.
    """
    if mode is None:
        return default_async_mode()
    get_backend(mode)
    return mode


def execute(mode: Optional[str], request: ExecutionRequest) -> ExecutionResult:
    """Resolve ``mode`` and run the request on the selected backend.

    ``mode`` may be a backend name or ``None`` (resolved through
    ``REPRO_ASYNC_MODE``, exactly like the solvers' ``async_mode``
    argument).  Unknown rules and unknown modes fail *here*, with the
    valid choices listed, instead of deep inside an engine.
    """
    from repro.rules import available_rules

    if request.rule not in available_rules():
        raise ValueError(
            f"unknown update rule {request.rule!r}; available: "
            f"{', '.join(available_rules())}"
        )
    return get_backend(resolve_async_mode(mode)).run(request)


__all__ = [
    "ASYNC_MODE_ENV_VAR",
    "DEFAULT_ASYNC_MODE",
    "BackendCapabilities",
    "ExecutionBackend",
    "ExecutionRequest",
    "ExecutionResult",
    "PerSampleBackend",
    "BatchedBackend",
    "ProcessBackend",
    "available_backend_names",
    "capability_matrix",
    "default_async_mode",
    "execute",
    "get_backend",
    "resolve_async_mode",
]
