"""Argument-validation helpers shared by the public API.

All validators raise ``ValueError``/``TypeError`` with messages that name
the offending argument, so failures surface at the API boundary rather
than deep inside a numeric kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative when ``strict=False``)."""
    value = float(value)
    if strict and not value > 0.0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    value: float,
    name: str,
    *,
    low: float = -np.inf,
    high: float = np.inf,
    inclusive: bool = True,
) -> float:
    """Validate that ``low <= value <= high`` (or strict inequalities)."""
    value = float(value)
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not ok:
        op = "<=" if inclusive else "<"
        raise ValueError(f"{name} must satisfy {low} {op} {name} {op} {high}, got {value!r}")
    return value


def check_array_1d(
    arr,
    name: str,
    *,
    dtype=np.float64,
    min_len: int = 0,
    finite: bool = True,
) -> np.ndarray:
    """Coerce ``arr`` to a contiguous 1-D array and validate basic sanity."""
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {out.shape}")
    if out.shape[0] < min_len:
        raise ValueError(f"{name} must have at least {min_len} entries, got {out.shape[0]}")
    if finite and out.size and not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite values")
    return out


def check_probability_vector(p, name: str = "p", *, atol: float = 1e-8) -> np.ndarray:
    """Validate that ``p`` is a non-negative vector summing to one."""
    out = check_array_1d(p, name, dtype=np.float64, min_len=1)
    if np.any(out < -atol):
        raise ValueError(f"{name} contains negative entries")
    total = float(out.sum())
    if not np.isclose(total, 1.0, atol=atol, rtol=0.0):
        raise ValueError(f"{name} must sum to 1 (got {total!r})")
    # Clean tiny negatives introduced by floating point noise.
    out = np.clip(out, 0.0, None)
    return out / out.sum()


def check_index_array(idx, name: str, *, upper: Optional[int] = None) -> np.ndarray:
    """Validate an integer index array (non-negative, optionally bounded)."""
    out = np.ascontiguousarray(idx, dtype=np.int64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {out.shape}")
    if out.size and out.min() < 0:
        raise ValueError(f"{name} contains negative indices")
    if upper is not None and out.size and out.max() >= upper:
        raise ValueError(f"{name} contains indices >= {upper}")
    return out


__all__ = [
    "check_positive",
    "check_in_range",
    "check_array_1d",
    "check_probability_vector",
    "check_index_array",
]
