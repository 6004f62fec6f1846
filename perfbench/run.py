"""Run one workload of the benchmark, or all of them.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; nothing needs installing (the program is
imported from ``src/``).  Each workload run happens in a fresh process:
this launcher first builds the seed's inputs in one child process (cached
under ``.perfbench_cache/``, off the clock), then measures in another, and
prints every metric by name with its unit.  The last line of standard
output is the JSON result::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.98, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, plus the
tracing overhead.  ``--workload all`` runs every workload in turn and
prints one table.  The exit code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"
WORKLOADS = ("train-isasgd", "cluster-isasgd", "serve-distinct", "serve-hot")
#: Environment overrides that would change what the program runs; the
#: benchmark always measures the program's defaults, so they are cleared.
OVERRIDES = ("REPRO_KERNEL_BACKEND", "REPRO_ASYNC_MODE", "REPRO_CLUSTER_START_METHOD")
#: Wall-clock limit of one workload run, inputs included.
RUN_LIMIT_S = 175.0
RESULT_PREFIX = "PERFBENCH-RESULT "


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(spec: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stage", choices=("prepare", "measure"), default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --------------------------------------------------------------------- #
# Child stages (fresh processes)
# --------------------------------------------------------------------- #
def _import_paths() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def stage_prepare(args) -> int:
    _import_paths()
    from perfbench import prepare

    prepare.prepare(CACHE, args.seed, serve=args.workload.startswith("serve"))
    return 0


def stage_measure(args) -> int:
    _import_paths()
    import shutil

    from perfbench import prepare, workloads
    from repro.kernels.registry import resolve_backend

    load_before = os.getloadavg()
    seeds = prepare.seed_dir(CACHE, args.seed)
    if args.workload.startswith("serve"):
        key = json.loads((seeds / "ready.json").read_text())["key"]
        workdir = CACHE / f"run-{os.getpid()}"
        try:
            report = workloads.serve(args.workload, args.seed, args.seconds, bool(args.trace),
                                     seeds, key, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        report = workloads.train(args.workload, args.seed, args.seconds, bool(args.trace),
                                 seeds / "train.svm")
    environment = {
        "kernel_backend": resolve_backend(None).name,
        "async_mode": report.notes.get("async_mode", "n/a"),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
    }
    payload = {
        "attempted": report.attempted,
        "failures": report.failures,
        "metrics": report.metrics,
        "notes": report.notes,
        "environment": environment,
    }
    print(RESULT_PREFIX + json.dumps(payload), flush=True)
    return 0


# --------------------------------------------------------------------- #
# Launcher
# --------------------------------------------------------------------- #
def _child(args, stage: str, env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run a stage of this script in a fresh process group; kill it all on timeout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--stage", stage,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{stage} stage did not finish within {timeout:.0f} s") from None
    finally:
        try:  # reap anything the stage left behind (cluster workers)
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return subprocess.CompletedProcess(cmd, proc.returncode, out, None)


def run_one(args, spec: dict) -> dict:
    """Prepare and measure one workload; returns the printed result object."""
    started = time.monotonic()
    env = dict(os.environ)
    cleared = [name for name in OVERRIDES if env.pop(name, None) is not None]
    if cleared:
        print(f"note: cleared {', '.join(cleared)}; the benchmark measures the defaults",
              file=sys.stderr)
    if not (ROOT / "src" / "repro").is_dir():
        raise RuntimeError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    CACHE.mkdir(exist_ok=True)
    prep = _child(args, "prepare", env, RUN_LIMIT_S - (time.monotonic() - started))
    if prep.returncode != 0:
        raise RuntimeError("building the inputs failed")
    measured = _child(args, "measure", env, RUN_LIMIT_S - (time.monotonic() - started))
    lines = measured.stdout.splitlines()
    results = [line for line in lines if line.startswith(RESULT_PREFIX)]
    if measured.returncode != 0 or not results:
        raise RuntimeError(f"the {args.workload} run failed (exit code {measured.returncode})")
    payload = json.loads(results[-1][len(RESULT_PREFIX):])
    failed = sum(payload["failures"].values())
    attempted = payload["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(payload["environment"]))
    print("notes " + json.dumps(payload["notes"]))
    for reason, count in sorted(payload["failures"].items()):
        print(f"  failure x{count}: {reason}")
    units = metric_units(spec, bool(args.trace))
    metrics = payload["metrics"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    if args.trace:  # layers a workload does not exercise read zero
        metrics = {name: metrics.get(name, 0.0) for name in units}
    missing = sorted(set(units) - set(metrics))
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if missing or bad:
        raise RuntimeError(f"{failed} of {attempted} operations failed; "
                           f"metrics not measured: missing {missing}, non-finite {bad}")
    for name in units:
        print(f"  {name:<44} {metrics[name]:>16.6g} {units[name]}")
    print(f"  {'error_rate':<44} {failed / max(attempted, 1):>16.6g} fraction"
          f"  ({failed} of {attempted} operations failed)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_all(args, spec: dict) -> int:
    rows = {}
    for workload in WORKLOADS:
        one = argparse.Namespace(**{**vars(args), "workload": workload})
        try:
            rows[workload] = run_one(one, spec)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            rows[workload] = None
    print()
    names = list(metric_units(spec, bool(args.trace)))
    header = ["metric", *WORKLOADS]
    print("  ".join(f"{h:<18}" for h in header))
    for name in names + ["error_rate"]:
        cells = []
        for workload in WORKLOADS:
            row = rows[workload]
            if row is None:
                cells.append("failed")
            elif name == "error_rate":
                cells.append(f"{row['failed'] / max(row['attempted'], 1):.6g}")
            else:
                cells.append(f"{row['metrics'][name]['value']:.6g}")
        unit = "fraction" if name == "error_rate" else metric_units(spec, bool(args.trace))[name]
        print("  ".join(f"{c:<18}" for c in [f"{name} [{unit}]", *cells]))
    ok = all(row is not None and row["correct"] for row in rows.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse(argv)
    if args.stage == "prepare":
        return stage_prepare(args)
    if args.stage == "measure":
        return stage_measure(args)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args, spec)
    try:
        result = run_one(args, spec)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
