"""Online serving layer: batched scoring over stored run artifacts.

Training (PRs 1–9) produces content-addressed
:class:`~repro.metrics.tracing.RunRecord` artifacts; this package is what
consumes them under query traffic:

* :class:`~repro.serving.model.ScoringModel` — a stored artifact loaded
  into an immutable model (frozen weights, objective-aware
  ``predict`` / ``decision_function`` / ``predict_proba``), every scoring
  path dispatching through the kernel registry so
  ``REPRO_KERNEL_BACKEND=native`` accelerates serving like training;
* :class:`~repro.serving.batcher.MicroBatcher` — a micro-batching request
  queue whose one scoring thread coalesces single-row queries into one
  ``segment_margins`` kernel call per tick and builds the batch's
  predictions and probabilities with one objective call each;
* :class:`~repro.serving.swap.ModelRef` /
  :class:`~repro.serving.swap.ArtifactWatcher` — atomic hot-swap when a
  newer artifact of the served identity appears (readers pin one model per
  batch, so a swap never yields mixed-weight responses).

``python -m repro serve`` wraps all three (stdin/JSONL and ``--smoke``
modes); ``benchmarks/test_bench_serving.py`` writes ``BENCH_serving.json``
with p50/p99 latency and queries/sec, pipelined vs one query at a time,
and gates micro-batched throughput at ≥ 5x the one-query-at-a-time loop.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.serving.batcher import MicroBatcher, PendingResult
from repro.serving.model import ScoringModel
from repro.serving.swap import ArtifactWatcher, ModelRef

#: Default knobs of the serving layer (shared by the CLI and the docs).
SERVE_DEFAULTS: Dict[str, Any] = {
    "max_batch": 64,
    "max_delay_us": 200.0,
    "poll_interval": 0.5,
}


def serving_capabilities() -> List[Dict[str, Any]]:
    """Per-objective loaded-model capability rows (for ``list`` and docs).

    Every registered objective supports ``predict`` and
    ``decision_function``; ``predict_proba`` exists only for losses with a
    probabilistic interpretation (:attr:`Objective.has_probabilities`).
    """
    from repro.objectives.registry import available_objectives, make_objective

    rows: List[Dict[str, Any]] = []
    for name in available_objectives():
        obj = make_objective(name)
        rows.append(
            {
                "objective": name,
                "predict": True,
                "decision_function": True,
                "predict_proba": bool(obj.has_probabilities),
                "classification": bool(obj.is_classification),
            }
        )
    return rows


__all__ = [
    "ArtifactWatcher",
    "MicroBatcher",
    "ModelRef",
    "PendingResult",
    "SERVE_DEFAULTS",
    "ScoringModel",
    "serving_capabilities",
]
