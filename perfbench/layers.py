"""Which public function of which ``repro`` layer each span wraps.

:func:`install` patches them through a :class:`~perfbench.tracer.Tracer`;
``Tracer.restore`` takes them out again.  Span names are
``<layer>.<function>``; the per-layer metrics in ``BENCHMARK.json`` are
derived from them (see :func:`span_metrics`).  The ``per_sample`` and
``threads`` execution tiers are not on any measured path and carry no
spans.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List

import numpy as np

from perfbench.tracer import Tracer

#: Bytes one kernel entry moves, as computed (not measured) from the entry
#: counts: segment_margins reads an int32 index, a float64 value and the
#: float64 weight it indexes; scatter_add reads the index and the float64
#: delta and reads and writes the float64 weight; evaluate's matvec reads
#: like segment_margins.
BYTES_PER_ENTRY = {"kernels.segment_margins": 20, "kernels.scatter_add": 28, "kernels.evaluate": 20}


class Hooks:
    """What some spans observe beyond their duration."""

    def __init__(self) -> None:
        self.cluster_runs: List[Dict[str, float]] = []
        self.lane_starts: List[float] = []
        self.client_thread = threading.get_ident()

    def cluster_run(self, args, kwargs, result, started, ended) -> None:
        seconds = [float(s) for s in result.epoch_seconds]
        self.cluster_runs.append(
            {"busy_s": ended - started, "epochs_s": sum(seconds), "epoch_seconds": seconds}
        )

    def model_ref_get(self, args, kwargs, result, started, ended) -> None:
        # The client thread reads the model at submit; every other reader
        # is a scoring lane pinning the model for the batch it starts.
        if threading.get_ident() != self.client_thread:
            self.lane_starts.append(started)


def install(tracer: Tracer, hooks: Hooks, *, objective: Any, rule: Any, kernel: Any) -> None:
    """Patch a span around each layer's public functions on the measured paths."""
    from repro.async_engine.batched import BatchedSimulator
    from repro.async_engine.cost_model import CostModel
    from repro.cluster.driver import ClusterDriver
    from repro.core.is_asgd import ISASGDSolver
    from repro.core.sampler import SampleSequence
    from repro.experiments.store import ArtifactStore
    from repro.metrics.convergence import MetricsRecorder
    from repro.runtime import backends, trace_fold
    from repro.serving.batcher import MicroBatcher
    from repro.serving.model import ScoringModel
    from repro.serving.swap import ModelRef
    from repro.sparse import io
    from repro.sparse.csr import CSRMatrix

    method = tracer.patch_method
    tracer.patch_function(io.load_libsvm, "sparse.load_libsvm")
    method(CSRMatrix, "gather_rows", "sparse.gather_rows", count=lambda a, k: {"rows": len(a[1])})
    method(type(objective), "lipschitz_constants", "objectives.lipschitz_constants")
    method(type(objective), "predict_from_margins", "objectives.predict_from_margins")
    method(ISASGDSolver, "prepare_partition", "core.prepare_partition")
    method(SampleSequence, "generate", "core.sampler_build")
    method(type(rule), "block_entry_weights", "rules.block_entry_weights")
    kernel_cls = type(kernel)
    method(kernel_cls, "segment_margins", "kernels.segment_margins",
           count=lambda a, k: {"entries": len(a[1])})
    method(kernel_cls, "scatter_add", "kernels.scatter_add",
           count=lambda a, k: {"entries": len(a[2])})
    method(kernel_cls, "evaluate", "kernels.evaluate", count=lambda a, k: {"entries": a[2].nnz})
    method(BatchedSimulator, "run", "async_engine.run")
    method(CostModel, "trace_wall_clock", "async_engine.cost_model")
    tracer.patch_function(backends.execute, "runtime.execute")
    tracer.patch_function(trace_fold.fold_block, "runtime.fold_block")
    method(MetricsRecorder, "record", "metrics.record")
    method(ClusterDriver, "run", "cluster.run", observe=hooks.cluster_run)
    method(ArtifactStore, "load_entry", "experiments.load_entry")
    method(ArtifactStore, "index", "experiments.index")
    method(MicroBatcher, "submit", "serving.submit")
    method(ScoringModel, "decision_function_gathered", "serving.decision_function_gathered")
    method(ScoringModel, "from_artifact", "serving.from_artifact")
    method(ModelRef, "get", "serving.model_ref_get", observe=hooks.model_ref_get)


#: Span-derived per-layer metrics: metric name -> (span, field).
SPAN_METRICS = {
    "sparse.load_libsvm.busy_s": ("sparse.load_libsvm", "busy_s"),
    "sparse.gather_rows.calls": ("sparse.gather_rows", "calls"),
    "sparse.gather_rows.busy_s": ("sparse.gather_rows", "busy_s"),
    "objectives.lipschitz_constants.busy_s": ("objectives.lipschitz_constants", "busy_s"),
    "objectives.predict_from_margins.calls": ("objectives.predict_from_margins", "calls"),
    "objectives.predict_from_margins.busy_s": ("objectives.predict_from_margins", "busy_s"),
    "core.prepare_partition.busy_s": ("core.prepare_partition", "busy_s"),
    "core.sampler_build.calls": ("core.sampler_build", "calls"),
    "core.sampler_build.busy_s": ("core.sampler_build", "busy_s"),
    "rules.block_entry_weights.calls": ("rules.block_entry_weights", "calls"),
    "rules.block_entry_weights.busy_s": ("rules.block_entry_weights", "busy_s"),
    "kernels.segment_margins.calls": ("kernels.segment_margins", "calls"),
    "kernels.segment_margins.busy_s": ("kernels.segment_margins", "busy_s"),
    "kernels.scatter_add.calls": ("kernels.scatter_add", "calls"),
    "kernels.scatter_add.busy_s": ("kernels.scatter_add", "busy_s"),
    "kernels.evaluate.calls": ("kernels.evaluate", "calls"),
    "kernels.evaluate.busy_s": ("kernels.evaluate", "busy_s"),
    "async_engine.run.busy_s": ("async_engine.run", "busy_s"),
    "async_engine.self_s": ("async_engine.run", "self_s"),
    "async_engine.cost_model.busy_s": ("async_engine.cost_model", "busy_s"),
    "async_engine.blocks": ("runtime.fold_block", "calls"),
    "runtime.execute.busy_s": ("runtime.execute", "busy_s"),
    "metrics.record.calls": ("metrics.record", "calls"),
    "metrics.record.busy_s": ("metrics.record", "busy_s"),
    "cluster.run.busy_s": ("cluster.run", "busy_s"),
    "experiments.load_entry.calls": ("experiments.load_entry", "calls"),
    "experiments.load_entry.busy_s": ("experiments.load_entry", "busy_s"),
    "experiments.index.calls": ("experiments.index", "calls"),
    "experiments.index.busy_s": ("experiments.index", "busy_s"),
    "serving.submit.calls": ("serving.submit", "calls"),
    "serving.submit.busy_s": ("serving.submit", "busy_s"),
    "serving.decision_function_gathered.busy_s": ("serving.decision_function_gathered", "busy_s"),
    "serving.from_artifact.busy_s": ("serving.from_artifact", "busy_s"),
}

#: Counter-derived per-layer metrics: metric name -> counter key.
COUNTER_METRICS = {
    "sparse.gather_rows.rows": "sparse.gather_rows.rows",
    "kernels.segment_margins.entries": "kernels.segment_margins.entries",
    "kernels.scatter_add.entries": "kernels.scatter_add.entries",
}


def span_metrics(tracer: Tracer, per: float = 1.0) -> Dict[str, float]:
    """The span- and counter-derived metrics recorded so far, divided by ``per``."""
    spans = tracer.spans()
    counters = tracer.counters()
    out: Dict[str, float] = {}
    for metric, (span, field) in SPAN_METRICS.items():
        if span in spans:
            out[metric] = spans[span][field] / per
    for metric, key in COUNTER_METRICS.items():
        if key in counters:
            out[metric] = counters[key] / per
    computed = sum(
        counters.get(f"{span}.entries", 0) * size for span, size in BYTES_PER_ENTRY.items()
    )
    if computed:
        out["kernels.bytes_computed"] = computed / per
    return out


def merge(*parts: Dict[str, float]) -> Dict[str, float]:
    """Sum metric dicts key by key (e.g. one setup plus one fit)."""
    out: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0.0) + value
    return out


def queue_waits(lane_starts: List[float], submitted: np.ndarray, completed: np.ndarray) -> np.ndarray:
    """Seconds from submit to the start of the scoring call of each request.

    A request belongs to the last batch a lane started before its response
    completed (exact for one lane, whose batches run one after another).
    """
    starts = np.sort(np.asarray(lane_starts, dtype=np.float64))
    answered = ~np.isnan(completed)
    batch = np.searchsorted(starts, completed[answered], side="right") - 1
    return np.maximum(starts[np.maximum(batch, 0)] - submitted[answered], 0.0)
