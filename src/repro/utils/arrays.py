"""Bit-exact JSON encoding of NumPy arrays.

Run artifacts (:mod:`repro.experiments.store`) and cluster checkpoints
(:mod:`repro.cluster.checkpoint`) both store arrays as ``{dtype, shape,
data}`` with the raw bytes in base64: decoding restores every bit (-0.0,
subnormals, NaN payloads, ±inf) and costs a copy, not a decimal parse.
"""

from __future__ import annotations

import base64
from typing import Any, Dict

import numpy as np


def encode_array(array: np.ndarray) -> Dict[str, Any]:
    """JSON-safe bit-exact encoding of a NumPy array (dtype, shape, base64)."""
    arr = np.asarray(array)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(payload: Dict[str, Any]) -> np.ndarray:
    """Invert :func:`encode_array` (returns a fresh writable array).

    A malformed payload raises :class:`ValueError`.
    """
    try:
        raw = base64.b64decode(payload["data"])
        arr = np.frombuffer(raw, dtype=payload["dtype"]).reshape(payload["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed array payload: {exc!r}") from exc
    return arr.copy()


__all__ = ["encode_array", "decode_array"]
