"""The four workloads: what each runs, checks and measures.

Every workload runs in a fresh process (see ``run.py``) against the
program's public API only, with inputs from :mod:`perfbench.inputs`.  With
``trace`` off it measures the end-to-end metrics; with ``trace`` on it
runs the same calls with spans installed (:mod:`perfbench.layers`) and
reports the per-layer metrics plus the tracing overhead, measured against
untraced runs of the same calls in the same process.

Why each workload exists, and what it predicts, is in ``README.md``.
"""

from __future__ import annotations

import inspect
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from perfbench import checks, inputs, layers, loadgen
from perfbench.tracer import Tracer

#: Solver settings per training workload; everything else is the program's
#: default.  ``num_workers=None`` means one worker per usable core.
SOLVERS = {
    "train-isasgd": dict(async_mode="batched", num_workers=16, step_size=0.1, epochs=6),
    "cluster-isasgd": dict(async_mode="process", num_workers=None, step_size=0.02, epochs=40),
}
#: The model the serve workloads serve is trained like ``train-isasgd``.
SERVED_SOLVER = "train-isasgd"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = {"train": 3, "serve": 7}
#: Training fits per run at least, whatever ``--seconds`` allows.
MIN_FITS = 2

#: The latency phase's fixed offered rate (requests/s): about a sixth of
#: the micro-batcher's capacity (~25 k/s, pinned to one CPU) on the 2-vCPU
#: machine the benchmark was sized on.  The capacity phase keeps
#: SERVE_WINDOW requests outstanding.
SERVE_RATE = 4000.0
SERVE_WINDOW = 128
#: Shares of ``--seconds`` given to the latency and capacity phases.  The
#: gated capacity gets the larger share: its median then rests on about
#: 15 slices.
LATENCY_SHARE, CAPACITY_SHARE = 0.3, 0.55
#: Requests/s the query stream is sized for in the capacity phase; a
#: faster server ends the phase early when the rows run out (rows of
#: serve-distinct never repeat).
MAX_QPS = 50_000
#: serve-hot: popular rows (fewer than the default cache holds), the
#: number of republished weight versions, and seconds between republishes.
HOT_POOL, HOT_VERSIONS, REPUBLISH_PERIOD_S = 960, 4, 2.0
#: Serving capacity is measured in half-second closed-loop slices, each
#: right after a 0.2 s timing of :func:`reference_rate`, and reported at
#: the reference host speed: slice rate x REFERENCE_RATE / reference rate,
#: median over the slices.  On the shared VM the benchmark was sized on,
#: the host's speed for interpreter-bound code drifted by +-25 % over
#: minutes; the reference loop follows it, the program does not affect it.
CAPACITY_SLICE_S, REFERENCE_S = 0.5, 0.2
#: reference_rate() on the machine the benchmark was sized on (rows/s).
REFERENCE_RATE = 220_000.0
#: Requests sent before the clock starts.
WARMUP_REQUESTS = 2000


@dataclass
class Report:
    """What one workload run produced."""

    attempted: int = 0
    failures: Dict[str, int] = field(default_factory=dict)  # reason -> count
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def fail(self, reason: str, count: int = 1) -> None:
        if count:
            self.failures[reason] = self.failures.get(reason, 0) + count


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def objective():
    from repro.objectives import make_objective

    return make_objective(checks.OBJECTIVE[0], eta=checks.OBJECTIVE[1])


def _traced(tracer: Tracer, hooks: layers.Hooks, call: Callable[[], Any]) -> Any:
    """Run ``call`` with every layer span installed, then take them out."""
    from repro.kernels.registry import resolve_backend
    from repro.rules import make_rule

    obj = objective()
    layers.install(tracer, hooks, objective=obj, kernel=resolve_backend(None),
                   rule=make_rule("is_sgd", obj, 1.0))
    tracer.enabled = True
    try:
        return call()
    finally:
        tracer.enabled = False
        tracer.restore()


def _ms_percentiles(seconds: np.ndarray, *qs: float) -> List[float]:
    return [float(np.percentile(seconds, q)) * 1e3 for q in qs]


def reference_rate(queries, weights: np.ndarray, seconds: float) -> float:
    """Rows/s of a benchmark-owned loop making one single-row scoring's numpy calls."""
    rows = [queries.row(k) for k in range(256)]
    start = np.zeros(1, dtype=np.int64)
    began, done = time.perf_counter(), 0
    while time.perf_counter() - began < seconds:
        for idx, val in rows:
            i = np.ascontiguousarray(idx, dtype=np.int32)
            v = np.ascontiguousarray(val, dtype=np.float64)
            float(np.add.reduceat(v * weights[i], start)[0])
        done += len(rows)
    return done / (time.perf_counter() - began)


# --------------------------------------------------------------------- #
# Training workloads
# --------------------------------------------------------------------- #
def solver_kwargs(name: str) -> Dict[str, Any]:
    spec = dict(SOLVERS[name])
    if spec["num_workers"] is None:
        spec["num_workers"] = usable_cores()
    return spec


def run_fits(
    fit: Callable[[], Any], data: inputs.TrainingSet, epochs: int, report: Report,
    until: float, min_fits: int,
) -> List[Tuple[float, float, Any]]:
    """Fit until ``until`` (at least ``min_fits`` attempts); ``[(seconds, rmse, result)]``.

    Only passing fits are returned; a fit that raises or fails its check is
    recorded as a failure of ``report``.
    """
    done: List[Tuple[float, float, Any]] = []
    attempts, last = 0, 0.0
    while attempts < min_fits or time.perf_counter() + last < until:
        attempts += 1
        report.attempted += 1
        started = time.perf_counter()
        try:
            result = fit()
        except Exception as exc:  # noqa: BLE001 - a raising fit is a failed operation
            report.fail(f"fit raised {type(exc).__name__}: {exc}")
            continue
        last = time.perf_counter() - started
        reason, final = checks.check_fit(result, data, epochs)
        if reason is not None:
            report.fail(reason)
            continue
        done.append((last, final, result))
    return done


def train(name: str, seed: int, seconds: float, trace: bool, svm: Path) -> Report:
    """``train-isasgd`` and ``cluster-isasgd``: fit IS-ASGD on the seeded LibSVM file."""
    from repro import Problem, load_dataset, make_solver

    spec = solver_kwargs(name)
    data = inputs.make_training_set(seed)
    report = Report(notes={"solver": "is_asgd", **spec})
    tracer, hooks = Tracer(), layers.Hooks()
    started = time.perf_counter()
    until = started + seconds

    def setup():
        ds = load_dataset(str(svm))
        problem = Problem(X=ds.X, y=ds.y, objective=objective())
        problem.lipschitz_constants()
        return problem, make_solver("is_asgd", seed=seed, **spec)

    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS["train"]):
        t0 = time.perf_counter()
        problem, solver = _traced(tracer, hooks, setup) if trace else setup()
        setup_times.append(time.perf_counter() - t0)
    setup_layer = layers.span_metrics(tracer)
    tracer.reset()
    # Warm-up off the clock: one short fit of the same problem.
    make_solver("is_asgd", seed=seed, **{**spec, "epochs": 1}).fit(problem)

    def fit():
        return solver.fit(problem)

    samples = spec["epochs"] * data.labels.size
    if not trace:
        fits = run_fits(fit, data, spec["epochs"], report, until, MIN_FITS)
        if not fits:
            return report  # every fit failed: nothing to measure
        times = np.array([f[0] for f in fits])
        p50, p90 = _ms_percentiles(times, 50, 90)
        report.metrics.update(
            setup_s=statistics.median(setup_times),
            throughput_per_s=float(np.median(samples / times)),
            final_rmse=float(np.median([f[1] for f in fits])),
            peak_rss_mb=peak_rss_mb(),
        )
        report.notes.update(latency_samples=len(fits), latency_p50_ms=p50, latency_p90_ms=p90)
        if name == "cluster-isasgd":
            report.notes["worker_peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
        return report

    # Traced run: untraced and traced fits alternate.  Per-layer metrics
    # are per set-up plus per traced fit; the overhead compares the medians.
    plain: List[float] = []
    spanned: List[Tuple[float, float, Any]] = []
    while len(spanned) < MIN_FITS or time.perf_counter() < until:
        plain += [t for t, _, _ in run_fits(fit, data, spec["epochs"], report, 0.0, 1)]
        spanned += run_fits(lambda: _traced(tracer, hooks, fit), data, spec["epochs"],
                            report, 0.0, 1)
        if report.failures:
            return report  # a failing fit: the run is refused, not measured
    layer = layers.merge(setup_layer, layers.span_metrics(tracer, per=len(spanned)))
    results = [r for _, _, r in spanned]
    if name == "train-isasgd":
        layer.update({
            "async_engine.iterations": statistics.mean(r.trace.total_iterations for r in results),
            "async_engine.conflicts": statistics.mean(
                sum(e.conflicts for e in r.trace.epochs) for r in results),
            "async_engine.conflict_rate": statistics.mean(
                r.trace.conflict_rate() for r in results),
            "async_engine.history_overflows": statistics.mean(
                r.trace.total_history_overflows for r in results),
        })
    else:
        infos = [r.info for r in results]
        runs = hooks.cluster_runs
        layer.update({
            "cluster.epoch_p50_ms": float(np.median(
                [s for run in runs for s in run["epoch_seconds"]])) * 1e3,
            "cluster.overhead_s": statistics.mean(r["busy_s"] - r["epochs_s"] for r in runs),
            "cluster.occupancy_skew": statistics.mean(i["occupancy_skew"] for i in infos),
            "cluster.steals": statistics.mean(i["steal_count"] for i in infos),
            "cluster.mean_measured_delay": statistics.mean(
                i["mean_measured_delay"] for i in infos),
            "cluster.conflict_rate": statistics.mean(i["measured_conflict_rate"] for i in infos),
            "cluster.respawns": statistics.mean(i["respawns"] for i in infos),
            "cluster.worker_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        })
    traced_s = statistics.median(t for t, _, _ in spanned)
    layer["trace.overhead"] = 1.0 - statistics.median(plain) / traced_s
    report.metrics.update(layer)
    report.notes.update(untraced_fits=len(plain), traced_fits=len(spanned))
    return report


# --------------------------------------------------------------------- #
# Serve workloads
# --------------------------------------------------------------------- #
def _known(callable_: Any, options: Dict[str, Any]) -> Dict[str, Any]:
    """The ``options`` that ``callable_`` accepts (so a knob the program
    drops from its defaults or signature needs no benchmark edit)."""
    params = inspect.signature(callable_).parameters
    return {k: v for k, v in options.items() if k in params}


class _Server:
    """``repro serve``'s object graph: store -> watcher -> ScoringModel -> MicroBatcher."""

    def __init__(self, store_dir: Path, key: str) -> None:
        from repro.experiments.store import ArtifactStore
        from repro.serving import SERVE_DEFAULTS, ArtifactWatcher, MicroBatcher, ModelRef

        self.models: List[Any] = []  # every model published, in order
        self.ref = ModelRef()
        self.watcher = ArtifactWatcher(
            ArtifactStore(store_dir), self.ref, key=key, on_swap=self.models.append,
            **_known(ArtifactWatcher, SERVE_DEFAULTS),
        )
        self.watcher.load_initial()
        self.watcher.start()
        self.batcher = MicroBatcher(self.ref, **_known(MicroBatcher, SERVE_DEFAULTS))

    def submit(self, indices, values):
        return self.batcher.submit(indices, values)

    def close(self) -> None:
        self.batcher.close()
        self.watcher.stop()

    def weights_by_version(self, candidates: List[np.ndarray]) -> Dict[int, np.ndarray]:
        """Version -> the generated weights it serves (exact match), for the check."""
        found = {}
        for model in self.models:
            for weights in candidates:
                if np.array_equal(model.weights, weights):
                    found[int(model.version)] = weights
        return found


class _Republisher:
    """serve-hot: atomically replace the served artifact every period, cycling versions."""

    def __init__(self, staged: List[Path], target: Path) -> None:
        self.staged, self.target = staged, target
        self.next_at = None
        self.count = 0

    def __call__(self, now: float) -> None:
        if self.next_at is None:
            self.next_at = now + REPUBLISH_PERIOD_S
        if now < self.next_at:
            return
        source = self.staged[self.count % len(self.staged)]
        tmp = self.target.with_name(self.target.name + ".publishing")
        try:
            os.link(source, tmp)
        except OSError:
            shutil.copyfile(source, tmp)
        os.replace(tmp, self.target)
        self.count += 1
        self.next_at += REPUBLISH_PERIOD_S


def serve(
    name: str, seed: int, seconds: float, trace: bool, cache: Path, key: str,
    workdir: Path,
) -> Report:
    """``serve-distinct`` and ``serve-hot``: latency at a fixed rate, then capacity.

    The measuring process is pinned to one CPU.  The server is GIL-bound
    either way, and on the small VMs this benchmark targets, thread
    hand-offs between vCPUs made capacity swing by a third from run to run.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    hot = name == "serve-hot"
    latency_n = int(SERVE_RATE * seconds * LATENCY_SHARE)
    capacity_s = seconds * CAPACITY_SHARE
    total = WARMUP_REQUESTS + latency_n + int(MAX_QPS * capacity_s)
    queries = inputs.make_queries(seed, total, popular=HOT_POOL if hot else 0)
    warm_rows = np.arange(WARMUP_REQUESTS)
    latency_rows = np.arange(WARMUP_REQUESTS, WARMUP_REQUESTS + latency_n)
    capacity_rows = np.arange(WARMUP_REQUESTS + latency_n, total)
    base = np.load(cache / "served_weights.npy")
    candidates = [base] + inputs.republished_weights(seed, base, HOT_VERSIONS)
    staged = [cache / "staged" / f"v{v}" / f"{key}.json" for v in range(1, HOT_VERSIONS + 1)]

    store_dir = workdir / "store"
    store_dir.mkdir(parents=True)
    shutil.copyfile(cache / "store" / f"{key}.json", store_dir / f"{key}.json")
    republish = _Republisher(staged, store_dir / f"{key}.json") if hot else None
    report = Report(notes={"rate_per_s": SERVE_RATE, "window": SERVE_WINDOW})
    tracer, hooks = Tracer(), layers.Hooks()

    def setup() -> _Server:
        server = _Server(store_dir, key)
        idx, val = queries.row(0)
        server.submit(idx, val).result(timeout=loadgen.REQUEST_TIMEOUT_S)
        return server

    setup_times = []
    server = None
    for _ in range(1 if trace else SETUP_REPEATS["serve"]):
        if server is not None:
            server.close()
        t0 = time.perf_counter()
        server = _traced(tracer, hooks, setup) if trace else setup()
        setup_times.append(time.perf_counter() - t0)
    layer = layers.span_metrics(tracer)
    tracer.reset()
    phases = []
    try:
        phases.append(loadgen.closed_loop(server, queries, warm_rows, SERVE_WINDOW, 60.0))
        if trace:
            before = server.batcher.stats()
            lat = _traced(tracer, hooks, lambda: loadgen.open_loop(
                server, queries, latency_rows, SERVE_RATE, seed, republish))
            after = server.batcher.stats()
            layer = layers.merge(layer, layers.span_metrics(tracer))
            layer.update(_serving_layer(before, after, hooks, lat))
            half = capacity_s / 2
            plain = _capacity(server, queries, capacity_rows, half, republish, base)
            rest = capacity_rows[sum(out.sent for out in plain[0]):]
            spanned = _traced(tracer, hooks, lambda: _capacity(
                server, queries, rest, half, republish, base))
            caps = [plain, spanned]
        else:
            lat = loadgen.open_loop(server, queries, latency_rows, SERVE_RATE, seed, republish)
            caps = [_capacity(server, queries, capacity_rows, capacity_s, republish, base)]
    finally:
        server.close()
    phases += [lat.trim()] + [out for slices, _, _ in caps for out in slices]
    weights = server.weights_by_version(candidates)
    oks = [checks.check_responses(out, queries, weights) for out in phases]
    for out, ok in zip(phases, oks):
        report.attempted += out.sent
        report.fail("missing, late or wrong response", int(out.sent - ok.sum()))
    lat_ok = oks[1]
    report.notes.update(
        latency_samples=int(lat_ok.sum()), swaps=server.ref.swaps,
        capacity_raw_per_s=caps[0][2], capacity_slices=len(caps[0][0]),
        capacity_rows_left=int(capacity_rows.size - sum(out.sent for out in phases[2:])),
        republished=republish.count if republish else 0,
    )
    if trace:
        layer["trace.overhead"] = 1.0 - caps[1][1] / caps[0][1]
        report.metrics.update(layer)
        return report
    p50, p90, p99 = _ms_percentiles(lat.latency()[lat_ok], 50, 90, 99)
    report.metrics.update(
        setup_s=statistics.median(setup_times),
        throughput_per_s=caps[0][1],
        final_rmse=checks.served_rmse(phases[1:], oks[1:], queries),
        peak_rss_mb=peak_rss_mb(),
    )
    late_p50, late_p99 = _ms_percentiles(lat.late, 50, 99)
    report.notes.update(latency_p50_ms=p50, latency_p90_ms=p90, latency_p99_ms=p99,
                        loadgen_late_p50_ms=late_p50, loadgen_late_p99_ms=late_p99)
    return report


def _capacity(server, queries, rows: np.ndarray, seconds: float, tick, weights: np.ndarray):
    """Closed-loop capacity as ``(slices, rate at the reference host speed, raw rate)``.

    Rates are medians over the slices; a slice's rate counts its answered
    requests over its first send to last response.
    """
    slices: List[loadgen.Outcomes] = []
    scaled, raw = [], []
    used, until = 0, time.perf_counter() + seconds
    while time.perf_counter() < until and used < rows.size:
        speed = reference_rate(queries, weights, REFERENCE_S)
        span = rows[used : used + int(MAX_QPS * CAPACITY_SLICE_S)]
        out = loadgen.closed_loop(server, queries, span, SERVE_WINDOW, CAPACITY_SLICE_S, tick).trim()
        used += out.sent
        slices.append(out)
        answered = ~np.isnan(out.completed)
        if answered.any():  # a slice with no response only counts as failures
            rate = answered.sum() / (out.completed[answered].max() - out.due[0])
            raw.append(rate)
            scaled.append(rate * REFERENCE_RATE / speed)
    return slices, float(np.median(scaled or [np.nan])), float(np.median(raw or [np.nan]))


def _serving_layer(before: Dict, after: Dict, hooks: layers.Hooks, lat: loadgen.Outcomes) -> Dict:
    """Serving-layer metrics of the traced latency phase (counter deltas, waits)."""
    batches = after["batches"] - before["batches"]
    answered = after["answered"] - before["answered"]
    out = {
        "serving.batches": batches,
        "serving.mean_batch": answered / batches if batches else 0.0,
        "serving.swaps": after["model_swaps"] - before["model_swaps"],
        "loadgen.sent": lat.sent,
    }
    out["loadgen.latency_p50_ms"], out["loadgen.latency_p99_ms"] = _ms_percentiles(
        lat.latency()[~np.isnan(lat.completed)], 50, 99)
    out["loadgen.late_p50_ms"], out["loadgen.late_p99_ms"] = _ms_percentiles(lat.late, 50, 99)
    waits = layers.queue_waits(hooks.lane_starts, lat.submitted, lat.completed)
    if waits.size:
        out["serving.queue_wait_p50_ms"] = float(np.median(waits)) * 1e3
    if "cache" in after:
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        lookups = hits + after["cache"]["misses"] - before["cache"]["misses"]
        out["serving.cache.lookups"] = lookups
        out["serving.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    return out
