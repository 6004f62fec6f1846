"""``python -m repro serve`` — the online serving front end.

Two modes:

* **stdin/JSONL** (default): one JSON object per input line, either an
  explicit sparse row ``{"indices": [...], "values": [...]}`` or a row of a
  resident dataset ``{"row": 3}`` (requires ``--query-dataset``).  One JSON
  response per line, in input order:
  ``{"margin": ..., "prediction": ..., "model_version": ..., "proba": ...}``
  (an ``"id"`` field is echoed back when present).  A line that is not a
  valid query gets an in-order ``{"error": ...}`` response instead.  Model
  provenance and final queue statistics go to stderr.

* ``--smoke``: self-driving end-to-end exercise — train a tiny model into a
  temporary store, serve a few hundred queries through the micro-batcher,
  hot-swap the artifact mid-load, and print a JSON summary.  Used by the
  docs CI job as the serving smoke test.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from collections import deque
from typing import Any, Dict, List, Optional

import numpy as np

from repro.experiments.store import ArtifactStore
from repro.serving import SERVE_DEFAULTS, ArtifactWatcher, MicroBatcher, ModelRef


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the serve options (shared with the reference generator)."""
    parser.add_argument("--key", default=None,
                        help="serve exactly this artifact key (see `list --store`)")
    parser.add_argument("--dataset", default=None,
                        help="serve the newest artifact trained on this dataset")
    parser.add_argument("--solver", default=None,
                        help="with --dataset: restrict to this solver's artifacts")
    parser.add_argument("--backend", default=None,
                        help="kernel backend for scoring (reference, vectorized, native; "
                        "default: kernel registry default)")
    parser.add_argument("--max-batch", type=int, default=SERVE_DEFAULTS["max_batch"],
                        help="largest micro-batch per kernel call "
                        f"(default {SERVE_DEFAULTS['max_batch']})")
    parser.add_argument("--max-delay-us", type=float, default=SERVE_DEFAULTS["max_delay_us"],
                        help="coalescing window in microseconds "
                        f"(default {SERVE_DEFAULTS['max_delay_us']})")
    parser.add_argument("--proba", action="store_true",
                        help="attach positive-class probabilities when the objective has them")
    parser.add_argument("--watch", action=argparse.BooleanOptionalAction, default=True,
                        help="hot-swap when a newer artifact appears (--no-watch disables)")
    parser.add_argument("--poll-interval", type=float, default=SERVE_DEFAULTS["poll_interval"],
                        help="artifact-watch poll interval in seconds "
                        f"(default {SERVE_DEFAULTS['poll_interval']})")
    parser.add_argument("--query-dataset", default=None,
                        help="dataset whose rows `{\"row\": i}` queries refer to")
    parser.add_argument("--limit", type=int, default=None,
                        help="stop after this many input lines")
    parser.add_argument("--smoke", action="store_true",
                        help="self-driving end-to-end smoke (train + serve + hot-swap)")
    parser.add_argument("--smoke-queries", type=int, default=400,
                        help="queries driven in --smoke mode (default 400)")


def _latency_summary(latencies: List[float]) -> Dict[str, float]:
    arr = np.asarray(latencies, dtype=np.float64)
    if arr.size == 0:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0}
    return {
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p99_ms": float(np.percentile(arr, 99) * 1e3),
        "mean_ms": float(arr.mean() * 1e3),
    }


def _parse_query(line: str, query_X) -> Dict[str, Any]:
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError("each input line must be a JSON object")
    if "row" in payload:
        if query_X is None:
            raise ValueError('{"row": i} queries need --query-dataset')
        row = payload["row"]
        if not isinstance(row, int) or isinstance(row, bool):
            raise ValueError(f'"row" must be an integer, got {row!r}')
        idx, val = query_X.row(row)
        return {"indices": idx, "values": val, "id": payload.get("id")}
    if "indices" in payload and "values" in payload:
        return {
            "indices": payload["indices"],
            "values": payload["values"],
            "id": payload.get("id"),
        }
    raise ValueError('query must contain "indices"+"values" or "row"')


def cmd_serve(args: argparse.Namespace) -> int:
    if args.backend is not None:
        # Resolve eagerly through the kernel registry so an unknown name
        # fails up front with the availability-annotated error message.
        from repro.kernels.registry import make_backend

        make_backend(args.backend)
    if args.smoke:
        return _cmd_serve_smoke(args)
    if args.key is None and args.dataset is None and args.solver is None:
        raise ValueError(
            "serve needs --key, or --dataset/--solver identity filters, or --smoke"
        )

    store = ArtifactStore(args.store)
    ref = ModelRef()
    watcher = ArtifactWatcher(
        store,
        ref,
        key=args.key,
        dataset=args.dataset,
        solver=args.solver,
        kernel=args.backend,
        poll_interval=args.poll_interval,
    )
    model = watcher.load_initial()
    print(json.dumps({"model": model.describe()}), file=sys.stderr)

    query_X = None
    if args.query_dataset is not None:
        from repro.datasets.loader import load_dataset

        query_X = load_dataset(args.query_dataset).X

    if args.watch:
        watcher.start()
    batcher = MicroBatcher(
        ref,
        max_batch=args.max_batch,
        max_delay_us=args.max_delay_us,
        include_proba=args.proba,
    )
    outstanding: deque = deque()  # (pending, echo_id) in input order

    def _flush(block: bool) -> None:
        while outstanding and (block or outstanding[0][0].done()):
            pending, echo_id = outstanding.popleft()
            response = pending.result(timeout=60.0)
            if echo_id is not None:
                response = {"id": echo_id, **response}
            print(json.dumps(response))

    try:
        for lineno, line in enumerate(sys.stdin):
            if args.limit is not None and lineno >= args.limit:
                break
            line = line.strip()
            if not line:
                continue
            try:
                query = _parse_query(line, query_X)
                pending = batcher.submit(query["indices"], query["values"])
            except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
                _flush(block=True)  # keep responses aligned with inputs
                print(json.dumps({"error": str(exc)}))
                continue
            outstanding.append((pending, query["id"]))
            _flush(block=False)
        _flush(block=True)
    finally:
        batcher.close()
        if args.watch:
            watcher.stop()
    print(json.dumps({"stats": batcher.stats()}), file=sys.stderr)
    return 0


# --------------------------------------------------------------------- #
# --smoke: train → serve → query → hot-swap, self-contained
# --------------------------------------------------------------------- #
def _cmd_serve_smoke(args: argparse.Namespace) -> int:
    import shutil
    import time

    from repro.experiments.configs import ExperimentConfig, RunSpec
    from repro.experiments.runner import ExperimentRunner

    store_dir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    try:
        spec = RunSpec(
            dataset="news20_smoke", solver="sgd", num_workers=1,
            step_size=0.1, epochs=2, seed=0,
        )
        config = ExperimentConfig(name="serve_smoke", runs=[spec], seed=0)
        runner = ExperimentRunner(config, store=ArtifactStore(store_dir))
        runner.run()
        key = runner.plan()[0][1]

        store = ArtifactStore(store_dir)
        ref = ModelRef()
        watcher = ArtifactWatcher(
            store, ref, key=key, kernel=args.backend, poll_interval=0.02
        )
        model = watcher.load_initial()
        problem = runner.problem_for(spec.dataset)
        X = problem.X

        n_queries = max(1, args.smoke_queries)
        watcher.start()
        started = time.perf_counter()
        with MicroBatcher(
            ref,
            max_batch=args.max_batch,
            max_delay_us=args.max_delay_us,
            include_proba=args.proba,
        ) as batcher:
            pending = []
            swap_at = n_queries // 2
            for t in range(n_queries):
                if t == swap_at:
                    # Rewrite the artifact under the same key: the watcher
                    # must pick it up and hot-swap without dropping queries.
                    from repro.metrics.tracing import RunRecord

                    entry = store.load_entry(key)
                    store.save(key, RunRecord.from_dict(entry["record"]),
                               entry.get("identity"))
                idx, val = X.row(t % X.n_rows)
                pending.append(batcher.submit(idx, val))
            responses = [p.result(timeout=60.0) for p in pending]
            elapsed = time.perf_counter() - started
            # Give the watcher a beat to observe the rewrite, then verify.
            deadline = time.perf_counter() + 2.0
            while ref.swaps < 1 and time.perf_counter() < deadline:
                time.sleep(0.01)
            stats = batcher.stats()
        watcher.stop()

        if len(responses) != n_queries:
            raise ValueError(f"dropped queries: {len(responses)}/{n_queries} answered")
        versions = sorted({r["model_version"] for r in responses})
        summary = {
            "model": model.describe(),
            "queries": n_queries,
            "elapsed_seconds": elapsed,
            "queries_per_second": n_queries / elapsed if elapsed > 0 else None,
            "latency": _latency_summary([p.latency for p in pending]),
            "response_model_versions": versions,
            "hot_swaps_observed": ref.swaps,
            "stats": stats,
        }
        print(json.dumps(summary, indent=2, default=float))
        if ref.swaps < 1:
            print("error: hot swap was not observed", file=sys.stderr)
            return 1
        print("serve --smoke OK", file=sys.stderr)
        return 0
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


__all__ = ["add_serve_arguments", "cmd_serve"]
