"""Tests for ``tools/perf_ab.py``, the base/change benchmark comparison.

The end-to-end cases drive the tool against a throwaway git repository
whose ``perfbench/run.py`` is a stub that prints a result line from a
``values.json`` next to it, so no workload ever runs.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "perf_ab.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")

#: Reads the side's ``values.json``, logs the run in the side's own cache
#: (made on first use, like ``perfbench/run.py`` does) and in the test's
#: log named by ``PERF_AB_TEST_LOG``, and prints a result object as the
#: last line, like ``perfbench/run.py``.
STUB_RUN = '''\
import argparse, json, os, pathlib
root = pathlib.Path(__file__).resolve().parent.parent
parser = argparse.ArgumentParser()
parser.add_argument("--workload")
parser.add_argument("--seed", type=int)
args = parser.parse_args()
cache = root / ".perfbench_cache"
cache.mkdir(exist_ok=True)
log = cache / "runs.log"
runs = log.read_text().splitlines() if log.exists() else []
line = f"{root} {cache.resolve()} {args.workload} {args.seed}\\n"
for path in (log, pathlib.Path(os.environ["PERF_AB_TEST_LOG"])):
    with path.open("a") as fh:
        fh.write(line)
values = json.loads((root / "values.json").read_text())
rate = values["throughput"][len(runs) % len(values["throughput"])]
print("a table line the tool ignores")
print(json.dumps({"correct": values["failed"] == 0, "attempted": 10, "failed": values["failed"],
                  "metrics": {"throughput_per_s": {"value": rate, "unit": "1/s"},
                              "peak_rss_mb": {"value": 100.0, "unit": "MB"}}}))
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("perf_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(cwd, *args):
    return subprocess.run(
        ["git", "-c", "user.name=perf-ab-test", "-c", "user.email=perf-ab@test", *args],
        cwd=cwd, check=True, capture_output=True, text=True,
    ).stdout


def _repo(tmp_path, throughput, failed=0):
    """A committed repository whose benchmark is the stub."""
    root = tmp_path / "repo"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "workloads": [{"name": "serve-a"}, {"name": "serve-b"}],
        "end_to_end": [
            {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
        ],
    }))
    (root / ".gitignore").write_text(".perfbench_cache/\nperf_ab.json\n")
    _write_values(root, throughput, failed)
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "stub benchmark")
    return root


def _write_values(root, throughput, failed=0):
    (root / "values.json").write_text(json.dumps({"throughput": throughput, "failed": failed}))


def _perf_ab(root, *args):
    env = {**os.environ, "PERF_AB_TEST_LOG": str(root.parent / "runs.log")}
    return subprocess.run(
        [sys.executable, str(TOOL), *args], cwd=root, capture_output=True, text=True, env=env,
    )


def test_same_commit_is_never_better_or_worse(tmp_path):
    root = _repo(tmp_path, throughput=[100.0, 112.0, 95.0, 104.0, 90.0, 108.0])
    proc = _perf_ab(root, "--base", "HEAD", "--workload", "serve-a", "--pairs", "4",
                    "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    table = json.loads((root / "perf_ab.json").read_text())
    rows = table["workloads"]["serve-a"]
    assert table["base"] == _git(root, "rev-parse", "HEAD").strip()
    assert {row["verdict"] for row in rows.values()} <= {"within", "unresolved"}
    assert rows["peak_rss_mb"]["verdict"] == "within"
    assert len(rows["throughput_per_s"]["base_runs"]) == 4
    # Pairs alternate which side runs first, each side first equally often.
    log = (tmp_path / "runs.log").read_text().splitlines()
    sides = ["change" if line.split()[0] == str(root) else "base" for line in log]
    assert sides == ["base", "change", "change", "base"] * 2
    assert all(line.endswith("serve-a 7") for line in log)
    # Each side runs with a cache of its own, inside its own tree, so the
    # checkout's cache saw the change side's runs only.
    for line in log:
        side_root, cache = line.split()[:2]
        assert cache == str(Path(side_root) / ".perfbench_cache")
    own = (root / ".perfbench_cache" / "runs.log").read_text().splitlines()
    assert own == [line for line, side in zip(log, sides) if side == "change"]
    # The temporary worktree is gone again.
    assert _git(root, "worktree", "list").count("\n") == 1


def test_an_edit_in_the_checkout_is_the_change_side(tmp_path):
    root = _repo(tmp_path, throughput=[100.0, 102.0])
    _write_values(root, [150.0, 153.0])  # uncommitted: only the change side reads it
    proc = _perf_ab(root, "--base", "HEAD", "--workload", "all", "--pairs", "6",
                    "--out", "ab.json")
    assert proc.returncode == 0, proc.stderr
    table = json.loads((root / "ab.json").read_text())
    assert table["change"].endswith("+dirty")
    for workload in ("serve-a", "serve-b"):
        row = table["workloads"][workload]["throughput_per_s"]
        assert row["verdict"] == "better"
        assert (row["ahead"], row["pairs"]) == (6, 6)
        assert row["ratio"] == pytest.approx(1.5, rel=0.03)
    assert "serve-b" in proc.stdout and "better (0.25)" in proc.stdout


def test_a_failed_operation_stops_the_comparison(tmp_path):
    root = _repo(tmp_path, throughput=[100.0], failed=1)
    proc = _perf_ab(root, "--base", "HEAD", "--workload", "serve-a", "--pairs", "2")
    assert proc.returncode != 0
    assert "stopping: serve-a" in proc.stderr and "1 failed operations" in proc.stderr
    assert not (root / "perf_ab.json").exists()
    assert _git(root, "worktree", "list").count("\n") == 1


@pytest.mark.parametrize("pairs", ["3", "0"])
def test_an_unbalanced_pair_count_is_rejected(tmp_path, pairs):
    root = _repo(tmp_path, throughput=[100.0])
    proc = _perf_ab(root, "--base", "HEAD", "--workload", "serve-a", "--pairs", pairs)
    assert proc.returncode == 2
    assert "positive even number" in proc.stderr and "first slot" in proc.stderr
    assert not (tmp_path / "runs.log").exists()
    assert _git(root, "worktree", "list").count("\n") == 1
    with pytest.raises(ValueError, match="even"):
        _load_tool().ab(root, root, {}, ["serve-a"], int(pairs), 1)


BASE = [100.0, 101.0, 99.0, 102.0, 98.0]


@pytest.mark.parametrize("change,verdict", [
    ([130.0, 131.0, 129.0, 132.0, 128.0], "better"),
    ([70.0, 71.0, 69.0, 72.0, 68.0], "worse"),
    ([110.0, 111.0, 109.0, 112.0, 108.0], "within"),
    ([100.0, 160.0, 90.0, 101.0, 99.0], "unresolved"),  # change runs spread wider than the bound
    ([130.0, 131.0, 129.0, 132.0, 98.5], "unresolved"),  # beyond the bound, but the runs overlap
])
def test_verdict_against_the_bound(change, verdict):
    row = _load_tool().compare(BASE, change, "higher", 0.25)
    assert row["verdict"] == verdict


def test_lower_is_better_and_ties_count_for_neither():
    tool = _load_tool()
    row = tool.compare([100.0] * 5, [70.0, 100.0, 130.0, 100.0, 100.0], "lower", 0.2)
    assert row["ahead"] == 1  # 70 < 100 only; the ties count for neither side
    assert row["verdict"] == "unresolved"
    assert row["change_spread"] == pytest.approx(0.6)
    row = tool.compare(BASE, [60.0, 61.0, 59.0, 62.0, 58.0], "lower", 0.2)
    assert (row["verdict"], row["ahead"], row["ratio"]) == ("better", 5, pytest.approx(0.6))


def test_wide_runs_that_never_overlap_still_get_a_verdict():
    # Each side spreads wider than the bound, but every change run reads
    # better than every base run: the difference is not noise.
    row = _load_tool().compare([100.0, 140.0, 120.0, 110.0, 130.0],
                               [200.0, 260.0, 230.0, 210.0, 250.0], "higher", 0.25)
    assert max(row["base_spread"], row["change_spread"]) > 0.25
    assert row["verdict"] == "better"


@pytest.mark.parametrize("pairs", [1, 2, 3, 4])
def test_too_few_pairs_never_decide(pairs):
    # However clear the runs look, fewer than 5 pairs separate by chance
    # too often (2 / C(2n, n) >= 2.9 %), so a same-commit A/B stays quiet.
    row = _load_tool().compare(BASE[:pairs], [200.0] * pairs, "higher", 0.25)
    assert row["verdict"] == "unresolved"
