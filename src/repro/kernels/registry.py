"""Name-based kernel-backend registry (mirrors ``solvers/registry.py``).

The active backend is resolved in priority order:

1. an explicit :class:`~repro.kernels.base.KernelBackend` instance or name
   passed to the caller (solver constructors, ``MetricsRecorder``,
   ``Objective.batch_margins`` all accept a ``kernel`` argument);
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. the built-in default, ``"native"``.

Where cffi or a C compiler is missing, ``native`` resolves to the shared
``vectorized`` instance after one :class:`RuntimeWarning`, so the name a
caller configured is not always the kernel that runs:
``resolve_backend(kernel).name`` is.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Union

from repro.kernels.base import KernelBackend
from repro.kernels.native import make_native_backend, native_status
from repro.kernels.reference import ReferenceKernel
from repro.kernels.vectorized import VectorizedKernel

#: Environment variable consulted when no explicit backend is configured.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The built-in default backend name (falls back to ``vectorized`` where the
#: native extension cannot be built).
DEFAULT_BACKEND = "native"

_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {
    "native": make_native_backend,
    "reference": ReferenceKernel,
    "vectorized": VectorizedKernel,
}

# One shared instance per name — backends are stateless, so construction
# once per process is enough.
_INSTANCES: Dict[str, KernelBackend] = {}


def available_backends() -> List[str]:
    """Names accepted by :func:`make_backend`, sorted alphabetically."""
    return sorted(_FACTORIES)


def backend_availability() -> Dict[str, str]:
    """Availability status per backend name (no build side-effects).

    The pure-Python backends are always ``"available"``; ``native`` reports
    whether a compiled extension is loaded/cached, a fallback was taken, or
    a build would be attempted on first use.
    """
    status: Dict[str, str] = {}
    for name in available_backends():
        status[name] = native_status() if name == "native" else "available"
    return status


def _unknown_backend_error(name: str) -> ValueError:
    details = ", ".join(f"{n} [{s}]" for n, s in sorted(backend_availability().items()))
    return ValueError(f"unknown kernel backend {name!r}; available: {details}")


def make_backend(name: str) -> KernelBackend:
    """Return the (shared) backend instance named ``name``."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise _unknown_backend_error(name) from None
    if name not in _INSTANCES:
        _INSTANCES[name] = factory()
    return _INSTANCES[name]


def backend_doc_class(name: str) -> type:
    """The class documenting ``name``, without instantiating the backend.

    Documentation generators use this instead of :func:`make_backend` so that
    listing the ``native`` backend never triggers a compilation (or a
    fallback, which would mis-document it as the vectorized class).
    """
    if name not in _FACTORIES:
        raise _unknown_backend_error(name)
    if name == "native":
        from repro.kernels.native.backend import NativeKernel

        return NativeKernel
    return _FACTORIES[name]


def default_backend_name() -> str:
    """The name the process resolves ``kernel=None`` to."""
    env = os.environ.get(BACKEND_ENV_VAR, "").strip()
    return env if env else DEFAULT_BACKEND


def resolve_backend(kernel: Union[KernelBackend, str, None]) -> KernelBackend:
    """Normalise a ``kernel`` argument (instance, name or None) to a backend.

    ``None`` selects :func:`default_backend_name`'s backend.
    """
    if kernel is None:
        return make_backend(default_backend_name())
    if isinstance(kernel, KernelBackend):
        return kernel
    if isinstance(kernel, str):
        return make_backend(kernel)
    raise TypeError(
        f"kernel must be a KernelBackend, a backend name or None, got {type(kernel).__name__}"
    )


__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "available_backends",
    "backend_availability",
    "backend_doc_class",
    "make_backend",
    "default_backend_name",
    "resolve_backend",
]
