"""Benchmark: CLI sweep orchestration — cold training vs warm artifact reuse.

Drives the real ``python -m repro bench`` subcommand in a subprocess (so
argument parsing, config construction, the process-pool scheduler and the
artifact store are all on the measured path) over a reduced Figure-3/4/5
sweep.  The warm re-invocation must train *nothing* — that is the whole
point of the content-addressed store — and consequently be much faster
than the cold sweep; the gate asserts both.

Results are written to ``benchmarks/results/BENCH_cli.json`` (the
committed root ``BENCH_cli.json`` is a copy of it).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from benchmarks.conftest import bench_environment, write_result

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Reduced sweep: two datasets, two thread counts (12 training runs) —
#: large enough that training dominates the cold path, small enough for CI.
BENCH_ARGS = ["--config", "figures", "--datasets", "news20", "url",
              "--threads", "4", "8", "--epochs", "3", "--jobs", "0"]

#: The warm (all-cached) sweep must beat the cold (training) sweep by at
#: least this factor; measured values are far higher (loading JSON vs
#: training), the margin absorbs slow CI filesystems.
MIN_WARM_SPEEDUP = 3.0


def test_cli_sweep_warm_reuse_speedup(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    output = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", *BENCH_ARGS,
         "--store", str(tmp_path / "store"), "--output", str(output)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(output.read_text())
    result["environment"] = bench_environment()

    payload = json.dumps(result, indent=2)
    write_result("BENCH_cli.json", payload)

    # The cold pass trained every run; the warm pass trained none.
    assert result["cold_stats"]["trained"] == result["runs"]
    assert result["warm_stats"]["trained"] == 0
    assert result["warm_stats"]["reused"] == result["runs"]

    speedup = result["warm_speedup"]
    assert speedup is not None and speedup >= MIN_WARM_SPEEDUP, (
        f"warm sweep only {speedup:.1f}x faster than cold "
        f"(cold {result['cold_seconds']:.2f}s, warm {result['warm_seconds']:.2f}s); "
        f"expected >= {MIN_WARM_SPEEDUP}x"
    )
