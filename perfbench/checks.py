"""Output checks behind ``attempted`` / ``failed`` (and so ``error_rate``).

Every reference value is computed here with numpy from the benchmark's own
copy of the inputs, never read back from the program:

* a training fit passes when its weights are finite, it made exactly
  ``epochs * n`` updates, and its RMSE is below the RMSE at ``w = 0`` and
  agrees with the value the program reports;
* a served response passes when it arrived within the request timeout and
  carries the margin of its query row under the weights of the model
  version it names (hot swaps included).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from perfbench.inputs import QueryStream, TrainingSet
from perfbench.loadgen import REQUEST_TIMEOUT_S, Outcomes

#: The objective every workload trains and serves: logistic loss + eta * ||w||_1.
OBJECTIVE = ("logistic_l1", 1e-5)

#: Relative tolerance of a served margin against the numpy reference
#: (the kernels may sum a row in another order).
MARGIN_RTOL = 1e-9
_CHECK_CHUNK = 20_000


def rmse(data: TrainingSet, weights: np.ndarray) -> float:
    """The paper's y-axis, sqrt(objective), computed with numpy."""
    loss = float(np.mean(np.logaddexp(0.0, -data.labels * data.margins(weights))))
    return math.sqrt(loss + OBJECTIVE[1] * float(np.abs(weights).sum()))


def check_fit(result, data: TrainingSet, epochs: int) -> Tuple[Optional[str], float]:
    """``(reason or None, final RMSE)`` for one fit's ``TrainResult``."""
    weights = np.asarray(result.weights, dtype=np.float64)
    if weights.shape != (data.n_features,) or not np.all(np.isfinite(weights)):
        return "weights are not a finite d-vector", math.nan
    expected = epochs * data.labels.size
    if result.trace.total_iterations != expected:
        return f"{result.trace.total_iterations} updates, expected {expected}", math.nan
    final = rmse(data, weights)
    if not final < rmse(data, np.zeros_like(weights)):
        return f"final RMSE {final:.6f} is not below its value at w = 0", final
    if not math.isclose(final, result.curve.final_rmse, rel_tol=1e-6):
        return f"program reports RMSE {result.curve.final_rmse}, numpy gives {final}", final
    return None, final


def check_responses(
    out: Outcomes, queries: QueryStream, weights_by_version: Dict[int, np.ndarray]
) -> np.ndarray:
    """Mask of the requests of ``out`` whose response passes."""
    ok = ~np.isnan(out.completed) & (out.completed - out.due <= REQUEST_TIMEOUT_S)
    for version in np.unique(out.version[ok]):
        weights = weights_by_version.get(int(version))
        # Chunks keep the reference computation's memory independent of
        # how many responses the run produced (peak RSS is a metric).
        for lo in range(0, out.sent, _CHECK_CHUNK):
            part = slice(lo, lo + _CHECK_CHUNK)
            sel = np.nonzero(ok[part] & (out.version[part] == version))[0] + lo
            if weights is None:
                ok[sel] = False
                continue
            expected = queries.margins(weights, out.rows[sel])
            ok[sel] = np.abs(out.margin[sel] - expected) <= MARGIN_RTOL * (1.0 + np.abs(expected))
    return ok


def served_rmse(outs, oks, queries: QueryStream) -> float:
    """sqrt(mean logistic loss) of the served margins on their rows' labels.

    Each distinct query row counts once, with the mean loss of its passing
    responses, so the few most popular rows of ``serve-hot`` do not dominate.
    """
    rows = np.concatenate([queries.order[out.rows[ok]] for out, ok in zip(outs, oks)])
    margins = np.concatenate([out.margin[ok] for out, ok in zip(outs, oks)])
    losses = np.logaddexp(0.0, -queries.labels[rows] * margins)
    unique, which = np.unique(rows, return_inverse=True)
    per_row = np.bincount(which, weights=losses) / np.bincount(which)
    return math.sqrt(float(per_row.mean()))
