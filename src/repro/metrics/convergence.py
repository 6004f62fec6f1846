"""Convergence-curve containers.

A :class:`ConvergenceCurve` stores, per recorded epoch, the iterative
x-axis (epoch index, cumulative iterations), the simulated wall-clock
x-axis and the two y-metrics the paper reports (RMSE and error rate).  The
class offers interpolation helpers ("when did the curve first reach value
v?") that the speedup computations of Figure 4/5 are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.objectives.base import Objective
from repro.sparse.csr import CSRMatrix


@dataclass
class EpochMetrics:
    """Metrics recorded at the end of one epoch."""

    epoch: int
    iterations: int
    wall_clock: float
    rmse: float
    error_rate: float


@dataclass
class ConvergenceCurve:
    """A full training curve (one solver, one dataset, one concurrency)."""

    label: str = ""
    epochs: List[int] = field(default_factory=list)
    iterations: List[int] = field(default_factory=list)
    wall_clock: List[float] = field(default_factory=list)
    rmse: List[float] = field(default_factory=list)
    error_rate: List[float] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def append(self, record: EpochMetrics) -> None:
        """Append one epoch's metrics (epochs must arrive in order)."""
        if self.epochs and record.epoch <= self.epochs[-1]:
            raise ValueError("epochs must be appended in strictly increasing order")
        self.epochs.append(record.epoch)
        self.iterations.append(record.iterations)
        self.wall_clock.append(record.wall_clock)
        self.rmse.append(record.rmse)
        self.error_rate.append(record.error_rate)

    def __len__(self) -> int:
        return len(self.epochs)

    # ------------------------------------------------------------------ #
    @property
    def final_rmse(self) -> float:
        """RMSE at the last recorded epoch."""
        self._require_data()
        return float(self.rmse[-1])

    @property
    def final_error_rate(self) -> float:
        """Error rate at the last recorded epoch."""
        self._require_data()
        return float(self.error_rate[-1])

    @property
    def best_rmse(self) -> float:
        """Minimum RMSE reached anywhere on the curve."""
        self._require_data()
        return float(np.min(self.rmse))

    @property
    def best_error_rate(self) -> float:
        """The optimum: the lowest error rate reached anywhere on the curve."""
        self._require_data()
        return float(np.min(self.error_rate))

    @property
    def total_time(self) -> float:
        """Wall-clock of the full run."""
        self._require_data()
        return float(self.wall_clock[-1])

    def _require_data(self) -> None:
        if not self.epochs:
            raise ValueError("curve is empty")

    # ------------------------------------------------------------------ #
    def running_best(self, metric: str = "error_rate") -> np.ndarray:
        """The running minimum of a metric (the paper updates the error rate
        "once a better result is obtained", i.e. reports the running best)."""
        values = self._metric_values(metric)
        return np.minimum.accumulate(values)

    def _metric_values(self, metric: str) -> np.ndarray:
        if metric == "rmse":
            values = self.rmse
        elif metric == "error_rate":
            values = self.error_rate
        else:
            raise ValueError(f"unknown metric {metric!r} (use 'rmse' or 'error_rate')")
        self._require_data()
        return np.asarray(values, dtype=np.float64)

    def _axis_values(self, axis: str) -> np.ndarray:
        if axis == "wall_clock":
            values = self.wall_clock
        elif axis == "epochs":
            values = self.epochs
        elif axis == "iterations":
            values = self.iterations
        else:
            raise ValueError(f"unknown axis {axis!r}")
        return np.asarray(values, dtype=np.float64)

    def time_to_reach(
        self,
        target: float,
        *,
        metric: str = "error_rate",
        axis: str = "wall_clock",
    ) -> Optional[float]:
        """First axis-value at which the running-best metric reaches ``target``.

        Linear interpolation is applied between the two bracketing recorded
        points (matching the paper's "values are linearly interpolated when
        needed" for Figure 5).  Returns ``None`` when the curve never
        reaches ``target``.
        """
        best = self.running_best(metric)
        axis_vals = self._axis_values(axis)
        reached = np.nonzero(best <= target)[0]
        if reached.size == 0:
            return None
        k = int(reached[0])
        if k == 0:
            return float(axis_vals[0])
        prev_v, cur_v = best[k - 1], best[k]
        prev_x, cur_x = axis_vals[k - 1], axis_vals[k]
        if cur_v == prev_v:
            return float(cur_x)
        frac = (prev_v - target) / (prev_v - cur_v)
        frac = float(np.clip(frac, 0.0, 1.0))
        return float(prev_x + frac * (cur_x - prev_x))

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, list]:
        """Plain-dict representation (used by the report writer)."""
        return {
            "label": self.label,
            "epochs": list(self.epochs),
            "iterations": list(self.iterations),
            "wall_clock": list(self.wall_clock),
            "rmse": list(self.rmse),
            "error_rate": list(self.error_rate),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, list]) -> "ConvergenceCurve":
        """Inverse of :meth:`as_dict`."""
        curve = cls(label=payload.get("label", ""))
        for e, it, t, r, er in zip(
            payload["epochs"],
            payload["iterations"],
            payload["wall_clock"],
            payload["rmse"],
            payload["error_rate"],
        ):
            curve.append(EpochMetrics(epoch=e, iterations=it, wall_clock=t, rmse=r, error_rate=er))
        return curve


class MetricsRecorder:
    """Evaluates RMSE / error-rate snapshots during training.

    The recorder holds the evaluation data (by default the training set, as
    in the paper) and produces :class:`EpochMetrics` records given a model
    snapshot plus the solver's progress counters.

    Evaluation dispatches through a compute-kernel backend
    (:mod:`repro.kernels`): the ``native`` and ``vectorized`` backends share
    one batched matvec between the objective value and the error rate — the
    full-dataset evaluation is the dominant per-epoch cost, so this is the
    single biggest lever on end-to-end epoch time.
    """

    def __init__(
        self,
        objective: Objective,
        X: CSRMatrix,
        y: np.ndarray,
        *,
        label: str = "",
        kernel=None,
    ) -> None:
        if y.shape[0] != X.n_rows:
            raise ValueError("X and y row counts differ")
        from repro.kernels.registry import resolve_backend

        self.objective = objective
        self.X = X
        self.y = y
        self.kernel = resolve_backend(kernel)
        self.curve = ConvergenceCurve(label=label)

    def evaluate(self, weights: np.ndarray):
        """One full-dataset evaluation of ``weights`` (no curve mutation)."""
        return self.kernel.evaluate(self.objective, self.X, self.y, weights)

    def record(
        self, *, epoch: int, weights: np.ndarray, iterations: int = 0, wall_clock: float = 0.0
    ) -> EpochMetrics:
        """Evaluate ``weights`` and append the metrics to the curve.

        Solvers record each epoch as it ends, before the run's trace is
        priced, and set the curve's ``iterations`` and ``wall_clock`` axes
        once the run returns; those two arguments then keep their default.
        """
        evaluation = self.evaluate(weights)
        metrics = EpochMetrics(
            epoch=epoch,
            iterations=iterations,
            wall_clock=wall_clock,
            rmse=evaluation.rmse,
            error_rate=evaluation.error_rate,
        )
        self.curve.append(metrics)
        return metrics


__all__ = ["EpochMetrics", "ConvergenceCurve", "MetricsRecorder"]
