#!/usr/bin/env python
"""Documentation checks: markdown links + README quickstart + example smoke.

Run from anywhere inside the repository:

    python tools/check_docs.py            # links + quickstart + examples
    python tools/check_docs.py --links-only
    python tools/check_docs.py --skip-examples

Checks performed:

1. **Link check** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` must point at an existing file or directory (anchors are
   stripped; external ``http(s)``/``mailto`` links are not fetched).
   **No typed speedups** — the same pages may not claim ``~N×``/``~Nx``:
   such a figure drifts from the measurement it was copied from.  Name the
   CI gate (``>= 5x``) and the ``BENCH_*.json`` key that records the value.
2. **Quickstart smoke** — every ``bash`` code block in the README's
   *Quickstart* section is executed with ``bash -euo pipefail`` from the
   repository root (with ``src`` prepended to ``PYTHONPATH``), so the first
   commands a reader copies are guaranteed to work.
3. **Example smoke** — the runnable examples listed in
   :data:`SMOKE_EXAMPLES` are executed the same way, so the documented
   entry points cannot rot silently.
4. **Executable doc pages** — every ``bash`` block of the pages listed in
   :data:`EXECUTABLE_DOC_PAGES` (the CLI/experiments walkthroughs) is
   executed in order, same harness as the quickstart.
5. **Reference freshness** — ``docs/reference.md`` is regenerated from the
   live registries (``tools/gen_reference.py --check``) and must match the
   committed page byte-for-byte.

The pages and examples write their stores under ``/tmp/repro-docs-*``;
every such entry is removed once the runs are done, pass or fail.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where the executed pages and examples write (``<TMP_ROOT>/repro-docs-*``).
TMP_ROOT = Path("/tmp")

#: Examples executed by the docs CI job (fast, dependency-light scripts;
#: arguments keep the runtime in smoke territory).
SMOKE_EXAMPLES: list[tuple[str, list[str]]] = [
    ("examples/quickstart.py", ["--epochs", "3", "--workers", "4"]),
    ("examples/dataset_statistics.py", []),
    # Artifact-store-backed figure reproduction, restricted to one tiny
    # dataset; the second invocation must be pure artifact reuse.
    ("examples/reproduce_figures.py",
     ["--datasets", "news20", "--threads", "4", "--epochs", "2",
      "--out", str(TMP_ROOT / "repro-docs-figures"), "--fresh"]),
    ("examples/reproduce_figures.py",
     ["--datasets", "news20", "--threads", "4", "--epochs", "2",
      "--out", str(TMP_ROOT / "repro-docs-figures"), "--expect-cached"]),
]

#: Doc pages whose ``bash`` blocks are executed in order (same harness as
#: the README quickstart) — the self-verifying walkthroughs.
EXECUTABLE_DOC_PAGES: list[str] = [
    "docs/experiments.md",
    "docs/cli.md",
    "docs/serving.md",
]

#: Markdown inline links: [text](target) — images share the syntax.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: A typed approximate speedup: "~30×", "~1.6x", "~6–8×".
SPEEDUP_CLAIM_RE = re.compile(r"~\s*\d[\d.,]*(?:\s*[–-]\s*\d[\d.,]*)?\s*[×x](?![A-Za-z0-9])")

#: Fenced code blocks with an info string, non-greedy across lines.
FENCE_RE = re.compile(r"```(\w+)\n(.*?)```", re.DOTALL)


def doc_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_links() -> list[str]:
    """Return a list of broken-link descriptions (empty when clean)."""
    problems: list[str] = []
    for doc in doc_files():
        text = doc.read_text()
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(f"{doc.relative_to(REPO_ROOT)}: broken link -> {target}")
    return problems


def check_speedup_claims() -> list[str]:
    """Return one description per typed ``~N×`` claim (empty when clean)."""
    problems: list[str] = []
    for doc in doc_files():
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for match in SPEEDUP_CLAIM_RE.finditer(line):
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}:{lineno}: typed speedup {match.group(0)!r}; "
                    "cite the CI gate and the BENCH_*.json key instead"
                )
    return problems


def quickstart_blocks() -> list[str]:
    """The README Quickstart section's bash blocks, in order."""
    readme = (REPO_ROOT / "README.md").read_text()
    section = re.split(r"^## ", readme, flags=re.MULTILINE)
    quickstart = next((s for s in section if s.startswith("Quickstart")), "")
    return [body for lang, body in FENCE_RE.findall(quickstart) if lang == "bash"]


def _src_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_examples() -> list[str]:
    """Execute the smoke examples; return failure descriptions."""
    failures: list[str] = []
    env = _src_env()
    for script, args in SMOKE_EXAMPLES:
        path = REPO_ROOT / script
        if not path.exists():
            failures.append(f"{script}: example script missing")
            continue
        print(f"--- example {script} ---")
        proc = subprocess.run([sys.executable, str(path), *args], cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            failures.append(f"{script} exited with {proc.returncode}")
    return failures


def _run_bash_blocks(blocks: list[str], origin: str) -> list[str]:
    """Execute bash blocks from ``origin``; return failure descriptions."""
    env = _src_env()
    failures: list[str] = []
    for i, block in enumerate(blocks, 1):
        print(f"--- {origin} block {i}/{len(blocks)} ---")
        proc = subprocess.run(
            ["bash", "-euo", "pipefail", "-c", block],
            cwd=REPO_ROOT,
            env=env,
        )
        if proc.returncode != 0:
            failures.append(f"{origin} block {i} exited with {proc.returncode}")
    return failures


def run_quickstart() -> list[str]:
    """Execute the quickstart blocks; return failure descriptions."""
    blocks = quickstart_blocks()
    if not blocks:
        return ["README.md: no bash block found under '## Quickstart'"]
    return _run_bash_blocks(blocks, "README.md quickstart")


def run_doc_pages() -> list[str]:
    """Execute every bash block of the executable doc pages, in order."""
    failures: list[str] = []
    for page in EXECUTABLE_DOC_PAGES:
        path = REPO_ROOT / page
        if not path.exists():
            failures.append(f"{page}: executable doc page missing")
            continue
        blocks = [body for lang, body in FENCE_RE.findall(path.read_text()) if lang == "bash"]
        if not blocks:
            failures.append(f"{page}: no bash blocks found (page should be executable)")
            continue
        failures += _run_bash_blocks(blocks, page)
    return failures


def check_reference_freshness() -> list[str]:
    """``docs/reference.md`` must match the registries byte-for-byte."""
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "gen_reference.py"), "--check"],
        cwd=REPO_ROOT,
        env=_src_env(),
    )
    if proc.returncode != 0:
        return ["docs/reference.md is stale (run `python tools/gen_reference.py`)"]
    return []


def remove_doc_outputs() -> None:
    """Delete every ``repro-docs-*`` entry the runs left under :data:`TMP_ROOT`."""
    for path in TMP_ROOT.glob("repro-docs-*"):
        if path.is_dir() and not path.is_symlink():
            shutil.rmtree(path)
        else:
            path.unlink()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--links-only", action="store_true",
                        help="skip executing the quickstart blocks and examples")
    parser.add_argument("--skip-examples", action="store_true",
                        help="run the link check and quickstart but not the examples")
    args = parser.parse_args()

    problems = check_links() + check_speedup_claims()
    checked = ", ".join(str(f.relative_to(REPO_ROOT)) for f in doc_files())
    if problems:
        print("Broken markdown links or typed speedups:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
    else:
        print(f"Link and speedup-claim check OK ({checked})")

    if not args.links_only:
        try:
            problems += check_reference_freshness()
            problems += run_quickstart()
            problems += run_doc_pages()
            if not args.skip_examples:
                problems += run_examples()
        finally:
            remove_doc_outputs()

    if problems:
        print(f"\n{len(problems)} documentation problem(s):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("Documentation checks passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
