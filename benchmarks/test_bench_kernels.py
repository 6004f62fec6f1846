"""Benchmark: the kernel layer's before/after per-iteration cost.

Measures the two hot paths the ``vectorized`` backend accelerates against
the ``reference`` (per-row Python loop) backend on the news20-smoke-scale
surrogate dataset:

* full-dataset metrics evaluation (RMSE + error rate), the dominant
  per-epoch cost of every convergence curve — one batched matvec vs ``n``
  row loops;
* one serial SGD epoch (the Algorithm-2 hot loop), fused raw-slice steps
  vs ``X.row`` → ``sample_grad`` → ``np.add.at``;
* ``AliasSampler`` construction (runs once per worker per fit),
  vectorized round-based build;
* the fused per-sample block (``run_sample_block``): the ``native``
  cffi-compiled C loop against the per-step Python loop, gated at >= 3x
  wherever the extension compiles (recorded, not asserted, elsewhere).

Each comparison times its sides in alternation
(:func:`benchmarks.conftest.best_of_alternating`), so a slow spell of the
host cannot decide a gated ratio by landing on one side only.

Results are written to ``benchmarks/results/BENCH_kernels.json``; the
committed root ``BENCH_kernels.json`` is a copy of it, so the perf
trajectory across PRs has a recorded data point.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from benchmarks.conftest import best_of_alternating, bench_environment, write_result
from repro.core.sampler import AliasSampler
from repro.datasets.catalog import get_descriptor
from repro.datasets.synthetic import make_sparse_classification
from repro.kernels import make_backend
from repro.metrics.convergence import MetricsRecorder
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import L1Regularizer
from repro.solvers.base import Problem
from repro.solvers.sgd import SGDSolver
from repro.utils.timer import measure_call


def _bench_problem():
    spec = get_descriptor("news20_smoke").surrogate
    X, y, _ = make_sparse_classification(spec, seed=0)
    objective = LogisticObjective(regularizer=L1Regularizer(1e-4))
    return Problem(X=X, y=y, objective=objective, name=spec.name)


@pytest.mark.benchmark(group="kernels")
def test_bench_kernel_backends(benchmark):
    """Reference vs vectorized backend on metrics evaluation and SGD epochs."""

    def measure():
        problem = _bench_problem()
        X = problem.X
        n = problem.n_samples
        rng = np.random.default_rng(1)
        w = rng.normal(scale=0.1, size=problem.n_features)

        payload = {
            "dataset": {
                "name": problem.name,
                "n_samples": n,
                "n_features": problem.n_features,
                "nnz": X.nnz,
                "density": X.density,
            },
            "environment": bench_environment(),
        }

        # --- full-dataset metrics evaluation (one record() call) -------- #
        recorders = {
            name: MetricsRecorder(problem.objective, X, problem.y, kernel=make_backend(name))
            for name in ("reference", "vectorized")
        }
        evals = best_of_alternating(
            {name: lambda r=r: r.evaluate(w) for name, r in recorders.items()}
        )
        payload["metrics_evaluation"] = {
            "reference_us": evals["reference"] * 1e6,
            "vectorized_us": evals["vectorized"] * 1e6,
            "speedup": evals["reference"] / evals["vectorized"],
        }

        # --- one serial SGD epoch (n per-sample steps) ------------------- #
        solvers = {
            name: SGDSolver(step_size=0.1, epochs=1, seed=0, kernel=name)
            for name in ("reference", "vectorized", "native")
        }
        epochs = best_of_alternating(
            {name: lambda s=s: s.fit(problem) for name, s in solvers.items()}
        )
        payload["sgd_epoch"] = {
            "reference_us_per_iter": epochs["reference"] / n * 1e6,
            "vectorized_us_per_iter": epochs["vectorized"] / n * 1e6,
            "native_us_per_iter": epochs["native"] / n * 1e6,
            "speedup": epochs["reference"] / epochs["vectorized"],
            "native_speedup_vs_vectorized": epochs["vectorized"] / epochs["native"],
        }

        # --- fused per-sample block: C loop vs per-step Python loop ------ #
        native = make_backend("native")
        native_compiled = native.name == "native"
        order = rng.permutation(n).astype(np.int64)
        scales = np.full(n, -0.05)
        backends = {"vectorized": make_backend("vectorized"), "native": native}
        block = best_of_alternating({
            name: lambda b=b: b.run_sample_block(
                w.copy(), problem.objective, X, problem.y, order, scales
            )
            for name, b in backends.items()
        })
        payload["per_sample_block"] = {
            "native_compiled": native_compiled,
            "vectorized_us_per_iter": block["vectorized"] / n * 1e6,
            "native_us_per_iter": block["native"] / n * 1e6,
            "speedup": block["vectorized"] / block["native"],
            "gated_native": native_compiled,
        }
        if not native_compiled:
            payload["per_sample_block"]["note"] = (
                "native backend fell back to vectorized (no C compiler); the "
                ">=3x fused-loop gate needs the compiled extension and is "
                "enforced by the CI bench job — the ratio recorded here "
                "compares vectorized against itself"
            )

        # --- alias-table construction ------------------------------------ #
        p = np.exp(rng.normal(0.0, 1.5, size=100_000))
        p /= p.sum()
        build = measure_call(lambda: AliasSampler(p, seed=0), repeats=3)
        payload["alias_sampler_build"] = {"n": int(p.size), "ms": build * 1e3}
        return payload

    payload = benchmark.pedantic(measure, rounds=1, iterations=1)
    text = json.dumps(payload, indent=2, default=float)
    print("\n" + text)
    write_result("BENCH_kernels.json", text)

    # Acceptance gate: batched metrics evaluation is >= 5x the per-row loop
    # (typically ~30x here), and the fused SGD step is no slower than the
    # reference path (typically ~1.6x; 0.9 tolerates shared-runner jitter).
    assert payload["metrics_evaluation"]["speedup"] >= 5.0
    assert payload["sgd_epoch"]["speedup"] >= 0.9
    # Fused-loop gate: the native C per-sample block must sustain >= 3x the
    # vectorized (per-step Python) iteration throughput.  Only enforced
    # where the extension actually compiled; otherwise the numbers above
    # are recorded with ``gated_native: false`` and a note.
    if payload["per_sample_block"]["gated_native"]:
        assert payload["per_sample_block"]["speedup"] >= 3.0, (
            f"native fused per-sample block speedup "
            f"{payload['per_sample_block']['speedup']:.2f}x below the 3x gate"
        )
