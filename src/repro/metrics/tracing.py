"""Run-level records tying together configuration, curves and traces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.async_engine.events import ExecutionTrace
from repro.metrics.convergence import ConvergenceCurve
from repro.utils.arrays import decode_array, encode_array


def _jsonable(value: Any) -> Tuple[bool, Any]:
    """Coerce ``value`` into a JSON-serializable equivalent.

    Returns ``(ok, converted)``; numpy scalars become Python scalars,
    numpy arrays and (possibly nested) sequences become lists, and
    anything irreducible reports ``ok=False`` so the caller can drop it
    loudly instead of failing the whole dump.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return True, value
    if isinstance(value, (np.integer,)):
        return True, int(value)
    if isinstance(value, (np.floating,)):
        return True, float(value)
    if isinstance(value, np.bool_):
        return True, bool(value)
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        out = []
        for item in value:
            ok, converted = _jsonable(item)
            if not ok:
                return False, None
            out.append(converted)
        return True, out
    if isinstance(value, dict):
        out_d = {}
        for key, item in value.items():
            ok, converted = _jsonable(item)
            if not ok or not isinstance(key, str):
                return False, None
            out_d[key] = converted
        return True, out_d
    return False, None


@dataclass
class RunRecord:
    """Everything produced by one training run.

    Attributes
    ----------
    solver:
        Solver name (``"sgd"``, ``"asgd"``, ``"is_asgd"``, ``"svrg_asgd"``...).
    dataset:
        Dataset name.
    num_workers:
        Concurrency used (1 for serial solvers).
    curve:
        The convergence curve.
    trace:
        The execution trace (``None`` for serial solvers that do not go
        through the asynchronous engine).
    info:
        Free-form extra data (balancing decision, ρ, ψ, timings, ...).
    """

    solver: str
    dataset: str
    num_workers: int
    curve: ConvergenceCurve
    trace: Optional[ExecutionTrace] = None
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Human-readable identifier of the run."""
        return f"{self.solver}[{self.dataset}, T={self.num_workers}]"

    def summary(self) -> Dict[str, Any]:
        """Flat summary row used by reports."""
        row: Dict[str, Any] = {
            "solver": self.solver,
            "dataset": self.dataset,
            "num_workers": self.num_workers,
            "epochs": len(self.curve),
            "final_rmse": self.curve.final_rmse,
            "best_error_rate": self.curve.best_error_rate,
            "total_time": self.curve.total_time,
        }
        if self.trace is not None:
            row["conflict_rate"] = self.trace.conflict_rate()
            row["iterations"] = self.trace.total_iterations
        for key, value in self.info.items():
            if isinstance(value, (int, float, str, bool, np.integer, np.floating)):
                row[key] = value
        return row

    # ------------------------------------------------------------------ #
    # JSON round-trip (the artifact store's on-disk format)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (inverse of :meth:`from_dict`).

        The curve and trace round-trip losslessly (including the measured
        wall-clock axis and the ``history_overflows`` counters).  ``info``
        values that are numeric arrays (bool, int or float; the runner's
        ``weights``) go bit-exact under ``"arrays"`` as dtype, shape and
        base64 (:func:`~repro.utils.arrays.encode_array`), so ``"info"``
        holds plain JSON only.  Other ``info`` entries that cannot be
        represented in JSON (e.g. live objects) are dropped and their keys
        recorded under ``"_dropped_info"`` so the loss is visible rather
        than silent.
        """
        info: Dict[str, Any] = {}
        arrays: Dict[str, Any] = {}
        dropped = []
        for key, value in self.info.items():
            if isinstance(value, np.ndarray) and value.dtype.kind in "biuf":
                arrays[key] = encode_array(value)
                continue
            ok, converted = _jsonable(value)
            if ok:
                info[key] = converted
            else:
                dropped.append(key)
        payload: Dict[str, Any] = {
            "solver": self.solver,
            "dataset": self.dataset,
            "num_workers": int(self.num_workers),
            "curve": self.curve.as_dict(),
            "trace": self.trace.to_dict() if self.trace is not None else None,
            "info": info,
        }
        if arrays:
            payload["arrays"] = arrays
        if dropped:
            payload["_dropped_info"] = sorted(dropped)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output.

        ``"arrays"`` entries come back into ``info`` as arrays.  Payloads
        written before arrays were stored that way (artifact format 1) have
        no such key and hold the runner's weights as a JSON float list,
        which comes back as a float64 array, so saving the record again
        stores them bit-exact too.  Other lists stay lists.
        """
        trace = payload.get("trace")
        info = dict(payload.get("info", {}))
        if "arrays" in payload:
            for key, encoded in payload["arrays"].items():
                info[key] = decode_array(encoded)
        elif isinstance(info.get("weights"), list):
            info["weights"] = np.asarray(info["weights"], dtype=np.float64)
        return cls(
            solver=payload["solver"],
            dataset=payload["dataset"],
            num_workers=int(payload["num_workers"]),
            curve=ConvergenceCurve.from_dict(payload["curve"]),
            trace=ExecutionTrace.from_dict(trace) if trace is not None else None,
            info=info,
        )


__all__ = ["RunRecord"]
