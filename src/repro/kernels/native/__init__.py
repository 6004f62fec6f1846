"""Native (cffi-compiled C) kernel backend with a warn-once fallback.

Importing this package is always safe: nothing is compiled at import time.
The registry factory :func:`make_native_backend` builds (or loads the cached)
extension on first use and — when no compiler or cached build is available —
emits a single :class:`RuntimeWarning` and returns the shared ``vectorized``
backend instance instead, so the default kernel never hard-fails (see
docs/kernels.md).
"""

from __future__ import annotations

import os
import sys
import warnings
from typing import Optional

from repro.kernels.native import builder
from repro.kernels.native.builder import NativeBuildError

_fallback_warned = False
_build_error: Optional[str] = None

_KERNELS_DIR = os.path.dirname(os.path.dirname(__file__)) + os.sep


def _caller_stacklevel() -> int:
    """``warnings.warn`` stacklevel of the first frame outside ``repro/kernels/``.

    The fallback warning is raised several kernel frames below the code that
    asked for a backend (``resolve_backend`` → ``make_backend`` → here); it
    should name that code.  (``skip_file_prefixes`` would do this, but
    needs Python 3.12.)
    """
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_KERNELS_DIR):
        frame, level = frame.f_back, level + 1
    return level


def make_native_backend():
    """Registry factory for ``native``: a :class:`NativeKernel`, or the shared
    ``vectorized`` instance (after a single warning) when the extension cannot
    be built."""
    global _fallback_warned, _build_error
    try:
        from repro.kernels.native.backend import NativeKernel

        backend = NativeKernel()
        _build_error = None
        return backend
    except NativeBuildError as exc:
        _build_error = str(exc)
        if not _fallback_warned:
            _fallback_warned = True
            warnings.warn(
                f"native kernel backend unavailable ({exc}); "
                "falling back to the 'vectorized' backend",
                RuntimeWarning,
                stacklevel=_caller_stacklevel(),
            )
        from repro.kernels.registry import make_backend

        return make_backend("vectorized")


def native_build_error() -> Optional[str]:
    """The last build failure message, or None if no failure was recorded."""
    return _build_error


def native_status() -> str:
    """Cheap human-readable availability status (never triggers a build)."""
    from repro.kernels import registry

    instance = registry._INSTANCES.get("native")
    if instance is not None:
        if instance.name == "native":
            return "compiled"
        return f"fallback to vectorized ({_build_error or 'build failed'})"
    if _build_error is not None:
        return f"fallback to vectorized ({_build_error})"
    if builder.cached_lib_path() is not None:
        return "compiled (cached build)"
    return "builds on first use"


def _reset_fallback_state() -> None:
    """Clear the warn-once/build-error state (test isolation only)."""
    global _fallback_warned, _build_error
    _fallback_warned = False
    _build_error = None


__all__ = [
    "NativeBuildError",
    "make_native_backend",
    "native_build_error",
    "native_status",
]
