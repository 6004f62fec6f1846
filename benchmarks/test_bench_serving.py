"""Benchmark: the online serving layer's micro-batching throughput.

One server configuration (the ``python -m repro serve`` defaults scaled to
``max_batch=256``), two client behaviours against it:

* **single-query loop** — one outstanding request at a time: each query is
  submitted and its response awaited before the next goes out, so every
  round trip pays the full queue hand-off and the kernel-call overhead for
  one row;
* **micro-batched** — requests are pipelined, so the batcher coalesces them
  into one ``segment_margins`` kernel call per tick.

Per-request p50/p99/mean latency and queries/sec are recorded for both,
plus the raw ``score_row`` direct-call rate (no queue at all) as a floor
reference.  Results go to ``benchmarks/results/BENCH_serving.json`` (the
committed root ``BENCH_serving.json`` is a copy of it); the acceptance gate
asserts micro-batched throughput >= 5x the single-query loop.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from benchmarks.conftest import bench_environment, write_result
from repro.datasets.catalog import get_descriptor
from repro.datasets.synthetic import make_sparse_classification
from repro.experiments.configs import RunSpec
from repro.experiments.runner import run_single
from repro.experiments.store import run_identity
from repro.serving import MicroBatcher, ScoringModel

#: One server configuration for every client behaviour measured here.
MAX_BATCH = 256
MAX_DELAY_US = 200.0
N_QUERIES = 2000


def _served_model():
    """Train a real artifact-shaped run and load it the serving way."""
    spec = RunSpec(
        dataset="news20_smoke", solver="sgd", num_workers=1,
        step_size=0.1, epochs=2, seed=0,
    )
    record = run_single(spec)
    return ScoringModel.from_record(record, identity=run_identity(spec))


def _query_stream(n: int):
    descriptor = get_descriptor("news20_smoke").surrogate
    X, _, _ = make_sparse_classification(descriptor, seed=0)
    return [X.row(i % X.n_rows) for i in range(n)], X


def _latency_block(latencies) -> dict:
    arr = np.asarray([l for l in latencies if l is not None], dtype=np.float64)
    return {
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p99_ms": float(np.percentile(arr, 99) * 1e3),
        "mean_ms": float(arr.mean() * 1e3),
    }


def _run_single_query_loop(model: ScoringModel, queries) -> dict:
    """One outstanding request at a time through the default server config."""
    with MicroBatcher(model, max_batch=MAX_BATCH, max_delay_us=MAX_DELAY_US) as batcher:
        for idx, val in queries[:32]:  # warm-up
            batcher.score(idx, val, timeout=30.0)
        pending = []
        started = time.perf_counter()
        for idx, val in queries:
            p = batcher.submit(idx, val)
            p.result(timeout=30.0)
            pending.append(p)
        elapsed = time.perf_counter() - started
    return {
        "queries": len(queries),
        "elapsed_seconds": elapsed,
        "qps": len(queries) / elapsed,
        **_latency_block([p.latency for p in pending]),
    }


def _run_batched(model: ScoringModel, queries) -> dict:
    """Pipelined submission: the batcher coalesces into real micro-batches."""
    with MicroBatcher(model, max_batch=MAX_BATCH, max_delay_us=MAX_DELAY_US) as batcher:
        warm = [batcher.submit(idx, val) for idx, val in queries[:64]]
        for p in warm:
            p.result(timeout=30.0)
        started = time.perf_counter()
        pending = [batcher.submit(idx, val) for idx, val in queries]
        for p in pending:
            p.result(timeout=30.0)
        elapsed = time.perf_counter() - started
        stats = batcher.stats()
    return {
        "queries": len(queries),
        "elapsed_seconds": elapsed,
        "qps": len(queries) / elapsed,
        "mean_batch": stats["mean_batch"],
        "largest_batch": stats["largest_batch"],
        **_latency_block([p.latency for p in pending]),
    }


@pytest.mark.benchmark(group="serving")
def test_bench_serving(benchmark):
    """Micro-batched serving throughput vs the one-query-at-a-time loop."""

    def measure():
        model = _served_model()
        queries, X = _query_stream(N_QUERIES)

        payload = {
            "dataset": {
                "name": "news20_smoke",
                "n_samples": X.n_rows,
                "n_features": X.n_cols,
                "nnz": X.nnz,
            },
            "environment": bench_environment(),
            "model": model.describe(),
            "server": {"max_batch": MAX_BATCH, "max_delay_us": MAX_DELAY_US},
        }

        # Floor reference: direct score_row calls, no queue involved.
        started = time.perf_counter()
        for idx, val in queries:
            model.score_row(idx, val)
        direct = time.perf_counter() - started
        payload["direct_score_row"] = {
            "qps": len(queries) / direct,
            "us_per_query": direct / len(queries) * 1e6,
        }

        payload["single_query"] = _run_single_query_loop(model, queries)
        payload["batched"] = _run_batched(model, queries)
        payload["speedup_batched_vs_single_query"] = (
            payload["batched"]["qps"] / payload["single_query"]["qps"]
        )
        return payload

    payload = benchmark.pedantic(measure, rounds=1, iterations=1)
    text = json.dumps(payload, indent=2, default=float)
    print("\n" + text)
    write_result("BENCH_serving.json", text)

    # Acceptance gate: coalescing pipelined queries into micro-batches must
    # sustain >= 5x the one-outstanding-request loop (typically >= 10x).
    assert payload["speedup_batched_vs_single_query"] >= 5.0, (
        f"micro-batched throughput only "
        f"{payload['speedup_batched_vs_single_query']:.2f}x the single-query "
        f"loop, below the 5x gate"
    )
    # Sanity: batching actually happened (not 2000 one-row kernel calls).
    assert payload["batched"]["mean_batch"] > 1.0
