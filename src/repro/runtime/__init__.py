"""The unified execution runtime: one rule definition, three backends.

``repro.runtime`` is the seam between *what* a solver computes (an update
rule from :mod:`repro.rules`, a sampler configuration, a data partition)
and *how* it executes (which of the three interchangeable tiers runs it).
Solvers build an :class:`~repro.runtime.backends.ExecutionRequest` and call
:func:`~repro.runtime.backends.execute`; the backend registry resolves the
``async_mode`` (:func:`~repro.runtime.backends.resolve_async_mode`: explicit
name, else ``REPRO_ASYNC_MODE``, else ``per_sample``), checks the rule name
and returns an :class:`~repro.runtime.backends.ExecutionResult` whose trace
plugs into the metrics/cost/experiments pipeline unchanged.

See ``docs/runtime.md`` for the backend contract, the capability table and
the "add a solver in one file" walkthrough.
"""

from repro.runtime.backends import (
    ASYNC_MODE_ENV_VAR,
    DEFAULT_ASYNC_MODE,
    BackendCapabilities,
    ExecutionBackend,
    ExecutionRequest,
    ExecutionResult,
    available_backend_names,
    capability_matrix,
    default_async_mode,
    execute,
    get_backend,
    resolve_async_mode,
)
from repro.runtime.trace_fold import (
    build_schedule,
    fold_block,
    fold_sync_step,
    fold_worker_counters,
)

__all__ = [
    "ASYNC_MODE_ENV_VAR",
    "DEFAULT_ASYNC_MODE",
    "BackendCapabilities",
    "ExecutionBackend",
    "ExecutionRequest",
    "ExecutionResult",
    "available_backend_names",
    "capability_matrix",
    "default_async_mode",
    "execute",
    "get_backend",
    "resolve_async_mode",
    "build_schedule",
    "fold_block",
    "fold_sync_step",
    "fold_worker_counters",
]
