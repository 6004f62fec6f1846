"""Tests of the benchmark's own parts, on tiny inputs.

They never run a workload or the benchmark command and write only to
pytest's temporary directories.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from perfbench import checks, inputs, layers, loadgen, workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
TINY = inputs.DataShape(n_rows=400, n_features=4000, nnz_per_row=12)


def _same(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in vars(a))


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    assert _same(inputs.make_training_set(3, TINY), inputs.make_training_set(3, TINY))
    assert not _same(inputs.make_training_set(3, TINY), inputs.make_training_set(4, TINY))
    for popular in (0, 50):
        a = inputs.make_queries(3, 300, popular=popular, shape=TINY)
        assert _same(a, inputs.make_queries(3, 300, popular=popular, shape=TINY))
        assert not _same(a, inputs.make_queries(4, 300, popular=popular, shape=TINY))
    base = np.linspace(-1.0, 1.0, 10)
    assert np.array_equal(inputs.republished_weights(3, base, 2)[1],
                          inputs.republished_weights(3, base, 2)[1])
    assert not np.array_equal(inputs.republished_weights(3, base, 2)[1],
                              inputs.republished_weights(4, base, 2)[1])


def test_generated_shape():
    data = inputs.make_training_set(0, TINY)
    lengths = np.diff(data.indptr)
    assert lengths.min() >= 1 and 8 <= lengths.mean() <= 14
    for lo, hi in zip(data.indptr[:-1], data.indptr[1:]):
        assert np.all(np.diff(data.indices[lo:hi]) > 0)  # canonical CSR rows
    assert data.indices.max() == TINY.n_features - 1
    assert set(np.unique(data.labels)) == {-1.0, 1.0}
    distinct = inputs.make_queries(0, 120, shape=TINY)
    assert np.array_equal(distinct.order, np.arange(120))
    hot = inputs.make_queries(0, 2000, popular=40, shape=TINY)
    assert len(np.unique(hot.order)) <= 40 and np.bincount(hot.order).max() > 100


def test_libsvm_file_loads_back_exactly(tmp_path):
    from repro import load_dataset

    data = inputs.make_training_set(1, TINY)
    inputs.write_libsvm(data, tmp_path / "train.svm")
    ds = load_dataset(str(tmp_path / "train.svm"))
    assert ds.X.shape == (TINY.n_rows, TINY.n_features)
    assert np.array_equal(ds.X.indptr, data.indptr)
    assert np.array_equal(ds.X.indices, data.indices)
    assert np.array_equal(ds.X.data, data.values)
    assert np.array_equal(ds.y, data.labels)


def test_query_margins_match_row_dot_products():
    queries = inputs.make_queries(2, 30, popular=7, shape=TINY)
    w = np.random.default_rng(0).standard_normal(TINY.n_features)
    expected = [float(queries.row(k)[1] @ w[queries.row(k)[0]]) for k in range(30)]
    assert np.allclose(queries.margins(w, np.arange(30)), expected, rtol=1e-12)


def _answered(queries, weights, version=1):
    n = len(queries)
    out = loadgen.Outcomes.empty(n)
    out.rows[:] = np.arange(n)
    out.due[:] = 0.0
    out.submitted[:] = 0.0
    out.completed[:] = 0.001
    out.margin[:] = queries.margins(weights, out.rows)
    out.version[:] = version
    out.sent = n
    return out


def test_response_check_fails_on_a_wrong_margin_version_or_timeout():
    queries = inputs.make_queries(5, 40, shape=TINY)
    w1 = np.random.default_rng(1).standard_normal(TINY.n_features)
    w2 = w1 * 1.5
    out = _answered(queries, w1)
    assert checks.check_responses(out, queries, {1: w1, 2: w2}).all()
    out.margin[3] += 1e-6                    # injected wrong margin
    out.version[7] = 2                       # names a version whose margin it lacks
    out.version[9] = 9                       # names a version never published
    out.completed[11] = loadgen.REQUEST_TIMEOUT_S + 1.0   # too late
    out.completed[13] = np.nan               # never answered
    ok = checks.check_responses(out, queries, {1: w1, 2: w2})
    assert sorted(np.nonzero(~ok)[0]) == [3, 7, 9, 11, 13]


def _fit_problem():
    from repro import Problem
    from repro.sparse import CSRMatrix

    data = inputs.make_training_set(2, TINY)
    X = CSRMatrix(data=data.values, indices=data.indices, indptr=data.indptr,
                  n_cols=data.n_features)
    return data, Problem(X=X, y=data.labels, objective=workloads.objective())


def test_fit_check_passes_a_real_fit_and_fails_broken_ones():
    from repro import make_solver

    data, problem = _fit_problem()
    solver = make_solver("is_asgd", async_mode="batched", num_workers=4, step_size=0.1,
                         epochs=2, seed=0)
    result = solver.fit(problem)
    reason, final = checks.check_fit(result, data, 2)
    assert reason is None and final < math.sqrt(math.log(2.0))
    assert checks.check_fit(result, data, 3)[0] is not None          # wrong update count
    result.weights = np.full_like(result.weights, np.nan)
    assert checks.check_fit(result, data, 2)[0] is not None          # non-finite weights


def test_a_fit_that_raises_is_a_failed_operation():
    data, _ = _fit_problem()
    report = workloads.Report()

    def broken():
        raise RuntimeError("boom")

    assert workloads.run_fits(broken, data, 2, report, until=0.0, min_fits=1) == []
    assert report.attempted == 1 and report.failures == {"fit raised RuntimeError: boom": 1}


def test_metric_and_workload_names_follow_the_naming_rules():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert all(unit.match(m["unit"]) for m in metrics)
    assert [w["name"] for w in spec["workloads"]] == list(
        __import__("perfbench.run", fromlist=["WORKLOADS"]).WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(layers.SPAN_METRICS) | set(layers.COUNTER_METRICS) <= per_layer


def test_tracer_times_nested_spans_and_restores_the_originals():
    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

        @classmethod
        def build(cls):
            return cls()

    originals = dict(vars(Layer))
    tracer = Tracer()
    tracer.patch_method(Layer, "outer", "l.outer")
    tracer.patch_method(Layer, "inner", "l.inner", count=lambda a, k: {"items": 2})
    tracer.patch_method(Layer, "build", "l.build")
    tracer.enabled = True
    assert Layer.build().outer() == 2
    tracer.enabled = False
    spans = tracer.spans()
    assert spans["l.outer"]["calls"] == 1 and spans["l.inner"]["calls"] == 2
    assert spans["l.build"]["calls"] == 1
    assert spans["l.outer"]["self_s"] <= spans["l.outer"]["busy_s"] - spans["l.inner"]["busy_s"] + 1e-9
    assert tracer.counters() == {"l.inner.items": 4}
    tracer.restore()
    assert all(vars(Layer)[k] is v for k, v in originals.items())


def test_queue_wait_uses_the_batch_a_response_completed_in():
    starts = [1.0, 2.0, 3.0]
    submitted = np.array([0.5, 0.9, 1.5, 2.9, 0.0])
    completed = np.array([1.1, 1.2, 2.2, 3.1, np.nan])
    waits = layers.queue_waits(starts, submitted, completed)
    assert np.allclose(waits, [0.5, 0.1, 0.5, 0.1])


def test_server_options_are_filtered_by_signature():
    def batcher(model, *, lanes=1, max_batch=64):
        return None

    assert workloads._known(batcher, {"lanes": 2, "cache_size": 9}) == {"lanes": 2}


def test_cache_pruning_keeps_the_newest_seeds_and_the_one_in_use(tmp_path):
    import os

    from perfbench import prepare

    dirs = [prepare.seed_dir(tmp_path, seed) for seed in range(7)]
    for age, path in enumerate(dirs):
        path.mkdir()
        os.utime(path, (1000.0 + age, 1000.0 + age))
    prepare._prune(tmp_path, keep=dirs[0])
    kept = sorted(p.name for p in tmp_path.iterdir())
    assert kept == sorted([dirs[0].name] + [p.name for p in dirs[-prepare.KEEP_SEEDS:]])

