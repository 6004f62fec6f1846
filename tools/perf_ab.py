#!/usr/bin/env python
"""A/B-compare the repository benchmark between a base revision and this checkout.

Run from inside the repository::

    python3 tools/perf_ab.py --base <rev> --workload <name|all> --pairs N [--seed S]
                             [--out perf_ab.json]

The base side is ``<rev>`` checked out into a temporary ``git worktree``;
the change side is this checkout as it is on disk, uncommitted edits
included.  Each side builds the seed's inputs in its own
``.perfbench_cache``, so the artifacts a side serves are written by that
side's program: an A/B sees a change to the artifact format.  The tool
drives the benchmark as a black box: it runs the ``command`` that
``BENCHMARK.json`` declares (untraced) with ``--workload <w> --seed <S>``
and reads the JSON object on the last line of its output.

Pairs alternate which side runs first, so the pair count must be even:
with an odd count the base side would take the first slot once more,
and a run's place in its pair moves some metrics (``train-isasgd``
throughput reads higher in the first slot).  Any run that fails, or reports a
failed operation, stops the comparison.  Per workload and end-to-end
metric the tool prints both medians, their ratio (change / base), the
median and range of the per-pair ratios (change / base within each pair;
host load that hits both runs of one pair cancels in them), in how many
pairs the change read better (ties count for neither) and each side's
spread, ``(max - min) / median``.  Each metric gets a verdict against its
``BENCHMARK.json`` bound, a relative change, from the medians and runs
alone (the per-pair ratios do not enter it):

* ``better`` / ``worse`` -- the change's median is better / worse than the
  base's by more than the bound, and no run of one side reads as well as
  any run of the other.  Two sides of one program separate like that by
  chance with probability ``2 / C(2n, n)`` for ``n`` pairs, so this takes
  at least 5 pairs (chance under 1 %, see :data:`ALPHA`), 6 as the count
  is even;
* ``within`` -- the medians differ by at most the bound and neither
  side's runs spread wider than it;
* ``unresolved`` -- otherwise.

The same table, with every run's value, is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

#: Largest chance that the runs of two sides of one program fail to overlap
#: that still lets a difference count as ``better`` or ``worse``.
ALPHA = 0.01


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout.strip()


def _run(root: Path, command: List[str], workload: str, seed: int) -> dict:
    """One benchmark run in ``root``; its result object, or SystemExit on failure."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed)],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or result.get("failed", 1) > 0:
        detail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        failed = "?" if result is None else result.get("failed")
        raise SystemExit(
            f"stopping: {workload} in {root} exited {proc.returncode} with "
            f"{failed} failed operations ({detail})"
        )
    return result


def _spread(values: List[float]) -> float:
    median = statistics.median(values)
    if median == 0:
        return 0.0 if max(values) == min(values) else math.inf
    return (max(values) - min(values)) / abs(median)


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def compare(base: List[float], change: List[float], better: str, bound: float) -> dict:
    """Summarise paired runs of one metric and give its verdict."""
    sign = 1.0 if better == "higher" else -1.0
    base_med, change_med = statistics.median(base), statistics.median(change)
    ahead = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    if base_med:
        gain = sign * (change_med - base_med) / abs(base_med)
    else:
        gain = 0.0 if change_med == 0 else sign * math.copysign(math.inf, change_med)
    pair_ratios = [c / b if b else None for b, c in zip(base, change)]
    defined = [r for r in pair_ratios if r is not None]
    spreads = (_spread(base), _spread(change))
    separated = (min(sign * c for c in change) > max(sign * b for b in base)
                 or max(sign * c for c in change) < min(sign * b for b in base))
    if abs(gain) > bound and separated and 2 / math.comb(2 * len(base), len(base)) <= ALPHA:
        verdict = "better" if gain > 0 else "worse"
    elif abs(gain) <= bound and max(spreads) <= bound:
        verdict = "within"
    else:
        verdict = "unresolved"
    return {
        "base_median": base_med,
        "change_median": change_med,
        "ratio": change_med / base_med if base_med else None,
        "pair_ratios": pair_ratios,
        "pair_ratio_median": statistics.median(defined) if defined else None,
        "pair_ratio_range": [min(defined), max(defined)] if defined else None,
        "ahead": ahead,
        "pairs": len(base),
        "base_spread": spreads[0],
        "change_spread": spreads[1],
        "base_quartiles": _quartiles(base),
        "change_quartiles": _quartiles(change),
        "bound": bound,
        "better": better,
        "verdict": verdict,
        "base_runs": base,
        "change_runs": change,
    }


def _print_table(workload: str, rows: Dict[str, dict]) -> None:
    print(f"\n{workload}")
    print(f"  {'metric':<18} {'base':>12} {'change':>12} {'ratio':>7} "
          f"{'pair ratios [range]':>23} {'ahead':>7} {'spread b/c':>13}  verdict (bound)")
    for name, row in rows.items():
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
        pairs = "n/a"
        if row["pair_ratio_median"] is not None:
            lo, hi = row["pair_ratio_range"]
            pairs = f"{row['pair_ratio_median']:.3f} [{lo:.3f}, {hi:.3f}]"
        print(f"  {name:<18} {row['base_median']:>12.6g} {row['change_median']:>12.6g} "
              f"{ratio:>7} {pairs:>23} {row['ahead']:>3}/{row['pairs']:<3} "
              f"{row['base_spread']:>6.3f}/{row['change_spread']:<6.3f}  "
              f"{row['verdict']} ({row['bound']:g})")


def check_pairs(pairs: int) -> None:
    """Reject a pair count that leaves the run order unbalanced."""
    if pairs < 2 or pairs % 2:
        raise ValueError(
            f"pairs must be a positive even number, got {pairs}: pairs alternate which "
            "side runs first, and an odd count gives the base side the first slot once more"
        )


def ab(root: Path, base_dir: Path, spec: dict, workloads: List[str], pairs: int,
       seed: int) -> Dict[str, Dict[str, dict]]:
    """Alternate base/change runs; return workload -> metric -> comparison."""
    check_pairs(pairs)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"base": base_dir, "change": root}
    values = {w: {s: {m: [] for m in metrics} for s in sides} for w in workloads}
    for k in range(pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for workload in workloads:
            for side in order:
                result = _run(sides[side], spec["command"], workload, seed)
                for name in metrics:
                    values[workload][side][name].append(float(result["metrics"][name]["value"]))
                print(f"pair {k + 1}/{pairs} {workload} {side}: " + ", ".join(
                    f"{n}={values[workload][side][n][-1]:.6g}" for n in metrics),
                    file=sys.stderr, flush=True)
    return {
        w: {
            name: compare(values[w]["base"][name], values[w]["change"][name],
                          m["better"], float(m["bound"]))
            for name, m in metrics.items()
        }
        for w in workloads
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="a BENCHMARK.json workload, or all")
    parser.add_argument("--pairs", type=int, required=True,
                        help="base/change pairs to run, an even number")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("perf_ab.json"),
                        help="where to write the JSON table (default: %(default)s)")
    args = parser.parse_args(argv)
    try:
        check_pairs(args.pairs)
    except ValueError as exc:
        parser.error(f"--{exc}")

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    workloads = names if args.workload == "all" else [args.workload]
    base_sha = _git(root, "rev-parse", "--verify", f"{args.base}^{{commit}}")

    tmp = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    base_dir = tmp / "base"
    _git(root, "worktree", "add", "--detach", str(base_dir), base_sha)
    try:
        table = ab(root, base_dir, spec, workloads, args.pairs, args.seed)
    finally:
        _git(root, "worktree", "remove", "--force", str(base_dir))
        shutil.rmtree(tmp, ignore_errors=True)

    for workload, rows in table.items():
        _print_table(workload, rows)
    payload = {
        "base": base_sha,
        "change": _git(root, "rev-parse", "HEAD") + (
            "+dirty" if _git(root, "status", "--porcelain", "--untracked-files=no") else ""
        ),
        "seed": args.seed,
        "pairs": args.pairs,
        "command": spec["command"],
        "workloads": table,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
