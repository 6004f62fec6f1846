"""Backend-pluggable compute-kernel layer shared by solvers, objectives and metrics.

Every numeric hot path in the library — per-sample SGD steps, batched
margins, scatter-adds, metrics evaluation — dispatches through a
:class:`~repro.kernels.base.KernelBackend` so that the *algorithmic* code
(solvers, objectives) is independent of *how* the arithmetic is executed.

Backends
--------
``reference``
    The original per-sample Python-loop semantics (``X.row(i)`` → scalar
    margin → scalar derivative → ``np.add.at``), kept as ground truth for
    parity testing and debugging.
``vectorized``
    Batched CSR primitives: segment-sum margins via ``np.add.reduceat``,
    scatter-add of scaled sparse rows via ``np.bincount``, one-matvec
    metrics evaluation, and raw-slice per-sample steps that perform the
    identical floating-point operations as ``reference`` so serial
    trajectories match bitwise.
``native`` (default)
    cffi-compiled C loops for the CSR primitives and — above all — the
    fused per-sample block (``run_sample_block`` / ``run_frozen_block``),
    built on first use and cached; falls back to ``vectorized`` with a
    single warning when no compiler or cached build is available.

Backend selection
-----------------
Resolution order for any ``kernel=...`` argument (accepted by every solver
constructor, :class:`~repro.metrics.convergence.MetricsRecorder`, and the
``Objective`` batch API):

1. an explicit backend instance or registry name;
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. the built-in default ``"native"`` (``vectorized`` where it cannot be built).

Batch-API contract
------------------
Backends obtain per-sample math from the objective's batch API, which is
implemented once on :class:`~repro.objectives.base.Objective` so every
registered objective supports it:

* ``batch_margins(w, X, rows=None, kernel=None)`` — margins ``<x_i, w>``;
* ``batch_loss(margins, y)`` — elementwise unregularised losses; must equal
  the scalar ``sample_loss`` evaluated per row;
* ``batch_grad_coeffs(margins, y)`` — elementwise loss derivatives w.r.t.
  the margin; must equal the scalar ``_loss_derivative`` per row, so a
  per-sample gradient is always ``batch_grad_coeffs(m, y)[i] * x_i`` plus
  the regulariser restricted to the support.

Any new objective only has to supply the scalar/vector loss hooks of the
``Objective`` ABC and automatically works with every backend; any new
backend only has to implement the ``KernelBackend`` primitives and
automatically accelerates every solver, objective and metric.
"""

from repro.kernels.base import KernelBackend, MetricsEval
from repro.kernels.native import (
    NativeBuildError,
    make_native_backend,
    native_build_error,
    native_status,
)
from repro.kernels.reference import ReferenceKernel
from repro.kernels.registry import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    available_backends,
    backend_availability,
    backend_doc_class,
    default_backend_name,
    make_backend,
    resolve_backend,
)
from repro.kernels.vectorized import VectorizedKernel

__all__ = [
    "KernelBackend",
    "MetricsEval",
    "NativeBuildError",
    "ReferenceKernel",
    "VectorizedKernel",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "available_backends",
    "backend_availability",
    "backend_doc_class",
    "default_backend_name",
    "make_backend",
    "make_native_backend",
    "native_build_error",
    "native_status",
    "resolve_backend",
]
