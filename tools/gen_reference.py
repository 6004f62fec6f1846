#!/usr/bin/env python
"""Generate ``docs/reference.md`` from the live registries.

The reference page lists every solver, objective, kernel backend, async
execution mode, experiment configuration and dataset the registries
expose — name, one-line docstring and accepted keyword arguments — so it
cannot drift from the code: CI regenerates the page and fails when the
committed copy differs byte-for-byte.

Usage::

    python tools/gen_reference.py           # (re)write docs/reference.md
    python tools/gen_reference.py --check   # exit 1 when the page is stale
    python tools/gen_reference.py --stdout  # print instead of writing
"""

from __future__ import annotations

import argparse
import enum
import inspect
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

REFERENCE_PATH = REPO_ROOT / "docs" / "reference.md"

HEADER = """\
# API reference (generated)

<!-- GENERATED FILE - DO NOT EDIT.
     Regenerate with `python tools/gen_reference.py`;
     CI runs `python tools/gen_reference.py --check` and fails on drift. -->

Every name below is live registry state: solvers from
`repro.solvers.registry`, objectives from `repro.objectives.registry`,
kernel backends from `repro.kernels.registry`, execution backends (async
modes) and their capability matrix from `repro.runtime`, update rules from
`repro.rules`, experiment configurations from
`repro.experiments.configs`, serving capabilities from `repro.serving`
and datasets from `repro.datasets.catalog`.
Pass the names to `python -m repro` (see [cli.md](cli.md)) or to the
corresponding `make_*` factory.
"""


def _doc_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    for line in doc.splitlines():
        line = line.strip()
        if line:
            return line
    return "(no docstring)"


def _fmt_default(value) -> str:
    if isinstance(value, enum.Enum):
        return repr(value.value)
    if isinstance(value, float):
        return repr(value)
    return repr(value)


def _signature_kwargs(callable_obj) -> str:
    """Render the keyword arguments of a callable, deterministically."""
    params = []
    for param in inspect.signature(callable_obj).parameters.values():
        if param.name == "self":
            continue
        if param.kind is inspect.Parameter.VAR_POSITIONAL:
            params.append(f"*{param.name}")
        elif param.kind is inspect.Parameter.VAR_KEYWORD:
            params.append(f"**{param.name}")
        elif param.default is inspect.Parameter.empty:
            params.append(param.name)
        else:
            params.append(f"{param.name}={_fmt_default(param.default)}")
    return ", ".join(params)


def _init_kwargs(cls) -> str:
    """Constructor kwargs, following ``**kwargs`` forwarded to the base class."""
    rendered = _signature_kwargs(cls.__init__)
    if rendered.endswith("**kwargs"):
        base = next(k for k in cls.__mro__[1:] if "__init__" in vars(k))
        rendered = rendered[: -len("**kwargs")] + _init_kwargs(base)
    return rendered


def _solvers_section() -> list[str]:
    from repro.solvers.registry import available_solvers, solver_class

    lines = ["## Solvers", "", "`make_solver(name, **kwargs)` — serial solvers ignore",
             "`num_workers`; every solver accepts `kernel=` (backend name).", ""]
    for name in available_solvers():
        cls = solver_class(name)
        lines.append(f"### `{name}`")
        lines.append("")
        lines.append(_doc_line(cls))
        lines.append("")
        lines.append(f"- class: `{cls.__module__}.{cls.__qualname__}`")
        lines.append(f"- kwargs: `{_init_kwargs(cls)}`")
        lines.append("")
    return lines


def _objectives_section() -> list[str]:
    from repro.objectives.registry import available_objectives, make_objective

    lines = ["## Objectives", "",
             "`make_objective(name, eta=...)` — `eta` is the regulariser",
             "strength (ignored by unregularised variants).", "",
             "| name | class | regulariser | description |",
             "| --- | --- | --- | --- |"]
    for name in available_objectives():
        obj = make_objective(name)
        reg = type(obj.regularizer).__name__
        lines.append(
            f"| `{name}` | `{type(obj).__name__}` | `{reg}` | {_doc_line(type(obj))} |"
        )
    lines.append("")
    return lines


def _kernels_section() -> list[str]:
    # backend_doc_class (not make_backend) keeps doc generation free of
    # build side effects: instantiating "native" would compile the C
    # extension — or document its fallback instance on compiler-less
    # machines instead of the backend itself.
    from repro.kernels.registry import (
        DEFAULT_BACKEND,
        available_backends,
        backend_doc_class,
    )

    lines = ["## Kernel backends", "",
             "Selected per call (`kernel=`) or via `REPRO_KERNEL_BACKEND`.", "",
             "| name | class | fused loop | description |",
             "| --- | --- | --- | --- |"]
    for name in available_backends():
        cls = backend_doc_class(name)
        marker = " (default)" if name == DEFAULT_BACKEND else ""
        fused = "yes" if getattr(cls, "fused_sample_block", False) else "-"
        lines.append(
            f"| `{name}`{marker} | `{cls.__name__}` | {fused} | {_doc_line(cls)} |"
        )
    lines.append("")
    return lines


def _async_modes_section() -> list[str]:
    from repro.runtime import DEFAULT_ASYNC_MODE, capability_matrix

    def _flag(value: bool) -> str:
        return "yes" if value else "-"

    lines = ["## Execution backends (async modes)", "",
             "Selected per solver (`async_mode=`) or via `REPRO_ASYNC_MODE`; "
             "every mode runs every update rule. The capability matrix comes "
             "from the `repro.runtime` backend registry (see "
             "[runtime.md](runtime.md)).", "",
             "| name | batching | true parallelism | measured time | deterministic | fault tolerant | description |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for row in capability_matrix():
        name = row["backend"]
        marker = " (default)" if name == DEFAULT_ASYNC_MODE else ""
        lines.append(
            f"| `{name}`{marker} | {_flag(row['supports_batching'])} "
            f"| {_flag(row['true_parallelism'])} | {_flag(row['measured_wall_clock'])} "
            f"| {_flag(row['deterministic'])} | {_flag(row.get('fault_tolerant', False))} "
            f"| {row['description']} |"
        )
    lines.append("")
    return lines


def _rules_section() -> list[str]:
    from repro.rules import available_rules, rule_description

    lines = ["## Update rules", "",
             "Single-source update-rule definitions from `repro.rules` "
             "(`make_rule(name, objective, step_size)`); every async mode "
             "executes the same definition.", "",
             "| name | description |", "| --- | --- |"]
    for name in available_rules():
        lines.append(f"| `{name}` | {rule_description(name)} |")
    lines.append("")
    return lines


def _configs_section() -> list[str]:
    from repro.experiments.configs import _CONFIG_BUILDERS, available_configs

    lines = ["## Experiment configurations", "",
             "`make_config(name, **overrides)` / `python -m repro sweep --config <name>`.",
             ""]
    for name in available_configs():
        builder = _CONFIG_BUILDERS[name]
        lines.append(f"### `{name}`")
        lines.append("")
        lines.append(_doc_line(builder))
        lines.append("")
        lines.append(f"- overrides: `{_signature_kwargs(builder)}`")
        lines.append("")
    return lines


def _serving_section() -> list[str]:
    import argparse as _argparse

    from repro.cli.serve import add_serve_arguments
    from repro.serving import SERVE_DEFAULTS, serving_capabilities

    def _flag(value: bool) -> str:
        return "yes" if value else "-"

    lines = ["## Serving", "",
             "`python -m repro serve` — load a stored artifact into an "
             "immutable scoring model behind a micro-batching queue with "
             "hot-swap on re-train (see [serving.md](serving.md)).", "",
             "Loaded-model capabilities per objective "
             "(`predict_proba` needs a probabilistic loss):", "",
             "| objective | predict | decision_function | predict_proba | kind |",
             "| --- | --- | --- | --- | --- |"]
    for row in serving_capabilities():
        kind = "classification" if row["classification"] else "regression"
        lines.append(
            f"| `{row['objective']}` | {_flag(row['predict'])} "
            f"| {_flag(row['decision_function'])} | {_flag(row['predict_proba'])} "
            f"| {kind} |"
        )
    lines.append("")
    lines.append(
        "Defaults: "
        + ", ".join(f"`{k}={v}`" for k, v in sorted(SERVE_DEFAULTS.items()))
        + "."
    )
    lines.append("")
    lines.append("| flag | default | description |")
    lines.append("| --- | --- | --- |")
    probe = _argparse.ArgumentParser(add_help=False)
    add_serve_arguments(probe)
    for action in probe._actions:
        flag = ", ".join(f"`{o}`" for o in action.option_strings)
        default = "-" if action.default in (None, False) else f"`{action.default}`"
        lines.append(f"| {flag} | {default} | {action.help} |")
    lines.append("")
    return lines


def _datasets_section() -> list[str]:
    from repro.datasets.catalog import get_descriptor, list_datasets

    lines = ["## Datasets", "",
             "Surrogates of the paper's four datasets; every name has a "
             "`*_smoke` variant at test-suite scale.", "",
             "| name | step size λ | epochs | surrogate size | description |",
             "| --- | --- | --- | --- | --- |"]
    for name in list_datasets(include_smoke=True):
        desc = get_descriptor(name)
        spec = desc.surrogate
        size = f"{spec.n_samples}×{spec.n_features}"
        lines.append(
            f"| `{name}` | {desc.step_size} | {desc.epochs} | {size} | {desc.description} |"
        )
    lines.append("")
    return lines


def generate() -> str:
    """The full reference page as markdown text."""
    sections = [
        HEADER.splitlines(),
        _solvers_section(),
        _objectives_section(),
        _kernels_section(),
        _async_modes_section(),
        _rules_section(),
        _configs_section(),
        _serving_section(),
        _datasets_section(),
    ]
    lines: list[str] = []
    for section in sections:
        if lines and lines[-1] != "":
            lines.append("")
        lines.extend(section)
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed page; exit 1 on drift")
    parser.add_argument("--stdout", action="store_true", help="print instead of writing")
    args = parser.parse_args()

    text = generate()
    if args.stdout:
        sys.stdout.write(text)
        return 0
    if args.check:
        committed = REFERENCE_PATH.read_text() if REFERENCE_PATH.exists() else None
        if committed != text:
            print(
                f"{REFERENCE_PATH.relative_to(REPO_ROOT)} is stale; "
                "regenerate with `python tools/gen_reference.py`",
                file=sys.stderr,
            )
            return 1
        print(f"{REFERENCE_PATH.relative_to(REPO_ROOT)} is up to date.")
        return 0
    REFERENCE_PATH.write_text(text)
    print(f"wrote {REFERENCE_PATH.relative_to(REPO_ROOT)} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
