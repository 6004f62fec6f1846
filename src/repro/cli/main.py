"""Argument parsing and subcommand implementations for ``python -m repro``.

Every subcommand is a thin shell over the library: configurations come
from :mod:`repro.experiments.configs`, execution and artifact reuse from
:mod:`repro.experiments.runner` / :mod:`repro.experiments.store`, and the
rendered output from :mod:`repro.experiments.report`.  The CLI adds no
behaviour of its own, so everything it can do is scriptable from Python.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.experiments.configs import (
    ExperimentConfig,
    RunSpec,
    available_configs,
    config_description,
    make_config,
)
from repro.experiments.report import format_table, write_report_files
from repro.experiments.runner import ExperimentRunner, RecordSet, resolve_jobs
from repro.experiments.store import ASYNC_SOLVERS, ArtifactStore, run_identity, identity_key
from repro.runtime import (
    available_backend_names,
    capability_matrix,
    default_async_mode,
    resolve_async_mode,
)

#: Default artifact-store directory (relative to the invocation cwd).
DEFAULT_STORE = "runs"


# --------------------------------------------------------------------- #
# Shared option groups
# --------------------------------------------------------------------- #
def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--async-mode",
        default=None,
        help="execution engine for the async solvers "
        f"({', '.join(available_backend_names())}; default: engine registry default)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="compute-kernel backend for all solvers "
        "(reference, vectorized, native; default: kernel registry default)",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed (default 0)")


def _add_store_flag(parser: argparse.ArgumentParser, *, default: Optional[str] = DEFAULT_STORE) -> None:
    parser.add_argument(
        "--store",
        default=default,
        help=f"artifact-store directory (default: {default!r})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Experiment orchestration for the IS-ASGD reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # ---------------------------------------------------------------- run
    p_run = sub.add_parser("run", help="execute (or reuse) one training run")
    p_run.add_argument("--dataset", required=True, help="dataset name (see `list`)")
    p_run.add_argument("--solver", required=True, help="solver name (see `list`)")
    p_run.add_argument("--workers", type=int, default=1, help="concurrency (default 1)")
    p_run.add_argument("--epochs", type=int, default=None,
                       help="epoch count (default: the dataset descriptor's)")
    p_run.add_argument("--step-size", type=float, default=None,
                       help="step size λ (default: the dataset descriptor's)")
    p_run.add_argument("--objective", default="logistic_l1", help="objective registry name")
    p_run.add_argument("--regularization", type=float, default=1e-4, help="regulariser strength η")
    p_run.add_argument("--force", action="store_true", help="re-train even when cached")
    p_run.add_argument("--json", action="store_true", help="print the full record as JSON")
    _add_execution_flags(p_run)
    _add_store_flag(p_run)
    p_run.set_defaults(func=cmd_run)

    # -------------------------------------------------------------- sweep
    p_sweep = sub.add_parser(
        "sweep", help="execute a named experiment configuration (resumable, parallel)"
    )
    p_sweep.add_argument(
        "--config", default="figures", choices=available_configs(),
        help="named configuration (default: figures — the Figure 3/4/5 sweep)",
    )
    p_sweep.add_argument("--smoke", action="store_true",
                         help="use the *_smoke surrogate datasets (fast)")
    p_sweep.add_argument("--datasets", nargs="+", default=None,
                         help="restrict to these datasets (figures/cluster configs)")
    p_sweep.add_argument("--threads", type=int, nargs="+", default=None,
                         help="concurrency levels (figures: thread counts; cluster: worker counts)")
    p_sweep.add_argument("--epochs", type=int, default=None, help="override the epoch count")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel spec executions (0 = one per usable core; default 1)")
    p_sweep.add_argument("--dry-run", action="store_true",
                         help="print the execution plan (cached/pending per run) and exit")
    p_sweep.add_argument("--force", action="store_true", help="re-train cached runs")
    _add_execution_flags(p_sweep)
    _add_store_flag(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    # ------------------------------------------------------------- report
    p_report = sub.add_parser(
        "report", help="rebuild figure/table summaries from stored artifacts (no training)"
    )
    p_report.add_argument("--out", default=None, help="directory to write rendered artefacts into")
    p_report.add_argument("--dataset", default=None, help="restrict to one dataset")
    p_report.add_argument("--solver", default=None, help="restrict to one solver")
    p_report.add_argument("--async-mode", default=None,
                          help="restrict to runs executed under this async mode "
                          "(a store can hold the same sweep under several modes)")
    p_report.add_argument("--table1", action="store_true",
                          help="also recompute the Table 1 dataset statistics (loads datasets)")
    p_report.add_argument("--smoke", action="store_true",
                          help="with --table1: use the *_smoke surrogates")
    p_report.add_argument("--json", action="store_true", help="print the headline numbers as JSON")
    _add_store_flag(p_report)
    p_report.set_defaults(func=cmd_report)

    # --------------------------------------------------------------- bench
    p_bench = sub.add_parser(
        "bench", help="time a sweep cold vs warm (artifact reuse) and record the result"
    )
    p_bench.add_argument("--config", default="figures", choices=available_configs())
    p_bench.add_argument("--smoke", action=argparse.BooleanOptionalAction, default=True,
                         help="smoke-scale surrogates (--no-smoke for full scale)")
    p_bench.add_argument("--datasets", nargs="+", default=None)
    p_bench.add_argument("--threads", type=int, nargs="+", default=None)
    p_bench.add_argument("--epochs", type=int, default=None)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--output", default="BENCH_cli.json",
                         help="where to write the benchmark record (default BENCH_cli.json)")
    _add_execution_flags(p_bench)
    _add_store_flag(p_bench, default=None)
    p_bench.set_defaults(func=cmd_bench)

    # --------------------------------------------------------------- serve
    p_serve = sub.add_parser(
        "serve", help="serve a stored model: micro-batched scoring with hot-swap"
    )
    from repro.cli.serve import add_serve_arguments, cmd_serve

    add_serve_arguments(p_serve)
    _add_store_flag(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    # ---------------------------------------------------------------- list
    p_list = sub.add_parser("list", help="show registries, or a store's artifacts")
    p_list.add_argument("--json", action="store_true", help="machine-readable output")
    _add_store_flag(p_list, default=None)
    p_list.set_defaults(func=cmd_list)

    return parser


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def _record_rows(records) -> List[Dict[str, Any]]:
    columns = ("solver", "dataset", "num_workers", "epochs",
               "final_rmse", "best_error_rate", "total_time")
    rows = []
    for record in records:
        summary = record.summary()
        row = {c: summary.get(c, "") for c in columns}
        row["async_mode"] = record.info.get("async_mode", "-")
        rows.append(row)
    return rows


def _print_records(records) -> None:
    if records:
        print(format_table(_record_rows(records)))


def _build_sweep_config(args: argparse.Namespace) -> ExperimentConfig:
    """Translate sweep/bench CLI flags into a configuration."""
    overrides: Dict[str, Any] = {
        "smoke": args.smoke or None,
        "datasets": args.datasets,
        "thread_counts": tuple(args.threads) if args.threads else None,
        "worker_counts": tuple(args.threads) if args.threads else None,
        "epochs_override": args.epochs,
        "epochs": args.epochs,
        "seed": args.seed,
    }
    # make_config maps the uniform namespace onto each builder's keywords
    # and raises on overrides the configuration cannot honour.
    config = make_config(args.config, **overrides)
    return config.with_overrides(async_mode=args.async_mode, kernel=args.backend)


def _sweep_runner(args: argparse.Namespace) -> ExperimentRunner:
    config = _build_sweep_config(args)
    return ExperimentRunner(config, store=ArtifactStore(args.store) if args.store else None)


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #
def cmd_run(args: argparse.Namespace) -> int:
    from repro.datasets.catalog import get_descriptor

    desc = get_descriptor(args.dataset)
    solver_kwargs = []
    if args.async_mode is not None:
        if args.solver not in ASYNC_SOLVERS:
            raise ValueError(
                f"--async-mode applies to the async solvers "
                f"({', '.join(sorted(ASYNC_SOLVERS))}); {args.solver!r} is serial"
            )
        solver_kwargs.append(("async_mode", args.async_mode))
    if args.backend is not None:
        solver_kwargs.append(("kernel", args.backend))
    spec = RunSpec(
        dataset=args.dataset,
        solver=args.solver,
        num_workers=args.workers,
        step_size=args.step_size if args.step_size is not None else desc.step_size,
        epochs=args.epochs if args.epochs is not None else desc.epochs,
        seed=args.seed if args.seed is not None else 0,
        solver_kwargs=tuple(solver_kwargs),
    )
    config = ExperimentConfig(
        name="cli_run", runs=[spec], objective=args.objective,
        regularization=args.regularization, seed=spec.seed,
    )
    runner = ExperimentRunner(config, store=ArtifactStore(args.store) if args.store else None)
    records = runner.run(force=args.force)
    record = records[0]
    stats = runner.stats
    status = "re-trained" if args.force else ("reused from store" if stats.reused else "trained")
    print(f"{record.label}: {status}")
    _print_records(records)
    if args.store:
        identity = run_identity(
            spec,
            objective=args.objective,
            regularization=args.regularization,
            cost_model=runner.cost_model,
            dataset_seed=config.seed,
        )
        print(f"artifact: {ArtifactStore(args.store).path_for(identity_key(identity))}")
    if args.json:
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    runner = _sweep_runner(args)
    plan = runner.plan()
    cached = sum(1 for _, _, _, status in plan if status == "cached")
    print(
        f"config {runner.config.name!r}: {len(plan)} runs "
        f"({cached} cached, {len(plan) - cached} pending), "
        f"jobs={resolve_jobs(args.jobs)}, store={args.store or '(none)'}"
    )
    if args.dry_run:
        rows = [
            {
                "dataset": spec.dataset,
                "solver": spec.solver,
                "workers": spec.num_workers,
                "epochs": spec.epochs,
                "async_mode": identity.get("async_mode") or "-",
                "key": key[:12],
                "status": status,
            }
            for spec, key, identity, status in plan
        ]
        print(format_table(rows))
        print("dry run: nothing executed.")
        return 0
    started = time.perf_counter()
    records = runner.run(jobs=args.jobs, force=args.force)
    elapsed = time.perf_counter() - started
    stats = runner.stats
    print(f"sweep finished in {elapsed:.2f}s: "
          f"{stats.trained} trained, {stats.reused} reused, {stats.skipped} skipped")
    _print_records(records)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.async_mode is not None:
        resolve_async_mode(args.async_mode)  # a typo must not silently filter everything out
    records = RecordSet.from_store(
        args.store, dataset=args.dataset, solver=args.solver, async_mode=args.async_mode
    )
    wrote: List[Path] = []
    if args.table1:
        from repro.experiments.tables import table1_rows
        from repro.datasets.catalog import list_datasets

        names = [f"{n}_smoke" for n in list_datasets()] if args.smoke else None
        rows = table1_rows(names)
        print(format_table(rows, title="Table 1"))
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            from repro.experiments.report import rows_to_csv

            (out / "table1.txt").write_text(format_table(rows, title="Table 1") + "\n")
            (out / "table1.csv").write_text(rows_to_csv(rows))
            wrote += [out / "table1.txt", out / "table1.csv"]
    if not records.records:
        if args.table1:
            return 0
        print(
            f"no artifacts found under {args.store!r}; run "
            "`python -m repro sweep --store ...` first",
            file=sys.stderr,
        )
        return 1
    from repro.experiments.figures import figure4_data, figure5_data, headline_numbers
    from repro.experiments.report import render_figure_summary, render_speedup_slices

    print(f"{len(records.records)} stored runs")
    deduped = records.deduplicated(prefer_async_mode=args.async_mode)
    if len(deduped) < len(records):
        print(
            f"note: collapsed {len(records) - len(deduped)} duplicate "
            "(dataset, solver, workers) runs from overlapping sweeps "
            "(simulated/default-mode records win); narrow with "
            "--dataset/--solver/--async-mode",
            file=sys.stderr,
        )
    panels4 = figure4_data(deduped)
    slices = figure5_data(deduped)
    print(render_figure_summary(panels4))
    print(render_speedup_slices(slices))
    headline = headline_numbers(deduped, panels4=panels4, slices=slices)
    if args.json:
        print(json.dumps(headline, indent=2, default=float))
    if args.out:
        wrote += write_report_files(
            deduped, args.out, panels4=panels4, slices=slices, headline=headline
        )
        print("wrote: " + ", ".join(str(p) for p in wrote))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import shutil
    import tempfile

    if args.store and ArtifactStore(args.store).keys():
        raise ValueError(
            f"bench times a cold sweep, but store {args.store!r} already holds "
            f"{len(ArtifactStore(args.store))} artifacts — pass an empty "
            "directory or omit --store for a temporary one"
        )
    store_dir = args.store or tempfile.mkdtemp(prefix="repro-bench-store-")
    cleanup = args.store is None
    try:
        args.store = store_dir
        runner = _sweep_runner(args)
        plan = runner.plan()
        started = time.perf_counter()
        runner.run(jobs=args.jobs)
        cold = time.perf_counter() - started
        cold_stats = runner.stats.as_dict()

        warm_runner = ExperimentRunner(runner.config, store=ArtifactStore(store_dir))
        started = time.perf_counter()
        warm_runner.run(jobs=args.jobs)
        warm = time.perf_counter() - started

        started = time.perf_counter()
        records = RecordSet.from_store(store_dir)
        from repro.experiments.figures import headline_numbers

        headline_numbers(records)
        report_seconds = time.perf_counter() - started

        result = {
            "config": args.config,
            "runs": len(plan),
            "jobs": resolve_jobs(args.jobs),
            "cold_seconds": cold,
            "cold_stats": cold_stats,
            "warm_seconds": warm,
            "warm_stats": warm_runner.stats.as_dict(),
            "warm_speedup": (cold / warm) if warm > 0 else None,
            "report_seconds": report_seconds,
        }
        Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result, indent=2))
        print(f"benchmark written to {args.output}")
        return 0
    finally:
        if cleanup:
            shutil.rmtree(store_dir, ignore_errors=True)


def cmd_list(args: argparse.Namespace) -> int:
    if args.store:
        store = ArtifactStore(args.store)
        rows = store.summary_rows()
        if args.json:
            print(json.dumps(rows, indent=2))
        elif rows:
            print(format_table(rows, title=f"artifacts in {args.store} ({len(rows)})"))
        else:
            print(f"no artifacts under {args.store!r}")
        return 0

    from repro.datasets.catalog import list_datasets
    from repro.kernels.registry import (
        available_backends,
        backend_availability,
        default_backend_name,
    )
    from repro.objectives.registry import available_objectives
    from repro.rules import available_rules, rule_description
    from repro.serving import SERVE_DEFAULTS, serving_capabilities
    from repro.solvers.registry import available_solvers

    registries = {
        "solvers": available_solvers(),
        "objectives": available_objectives(),
        "kernel_backends": available_backends(),
        "async_modes": available_backend_names(),
        "rules": available_rules(),
        "datasets": list_datasets(include_smoke=True),
        "configs": available_configs(),
    }
    matrix = capability_matrix()
    kernel_status = backend_availability()
    serving_rows = serving_capabilities()
    if args.json:
        payload = dict(registries)
        payload["kernel_backend_status"] = kernel_status
        payload["backends"] = matrix
        payload["serving"] = {
            "defaults": SERVE_DEFAULTS,
            "objectives": serving_rows,
        }
        print(json.dumps(payload, indent=2))
        return 0
    for name, values in registries.items():
        print(f"{name}:")
        for value in values:
            suffix = ""
            if name == "async_modes" and value == default_async_mode():
                suffix = "  (default)"
            elif name == "kernel_backends":
                status = kernel_status.get(value)
                if status and status != "available":
                    suffix = f"  [{status}]"
                if value == default_backend_name():
                    suffix += "  (default)"
            elif name == "rules":
                suffix = f"  — {rule_description(value)}"
            elif name == "configs":
                suffix = f"  — {config_description(value)}"
            print(f"  {value}{suffix}")
    print("backends:")
    rows = [
        {
            "backend": row["backend"],
            "batching": "yes" if row["supports_batching"] else "-",
            "parallel": "yes" if row["true_parallelism"] else "-",
            "measured_time": "yes" if row["measured_wall_clock"] else "-",
            "deterministic": "yes" if row["deterministic"] else "-",
            "fused_loop": "yes" if row.get("fused_kernel_loop") else "-",
            "fault_tol": "yes" if row.get("fault_tolerant") else "-",
        }
        for row in matrix
    ]
    print(format_table(rows, title="execution backends (async_mode capability matrix)"))
    print("serving:")
    serving_table = [
        {
            "objective": row["objective"],
            "predict": "yes" if row["predict"] else "-",
            "decision_function": "yes" if row["decision_function"] else "-",
            "predict_proba": "yes" if row["predict_proba"] else "-",
            "kind": "classification" if row["classification"] else "regression",
        }
        for row in serving_rows
    ]
    print(format_table(
        serving_table, title="loaded-model capabilities (`python -m repro serve`)"
    ))
    print("\nsee docs/reference.md for kwargs, docs/cli.md for invocations "
          "and docs/serving.md for the serving walkthrough")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


__all__ = ["build_parser", "main"]
