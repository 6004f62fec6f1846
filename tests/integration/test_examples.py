"""Integration tests: every example script must stay runnable.

The examples are part of the public deliverable, so they are executed here as
subprocesses with small arguments.  A failure in any example (import error,
renamed API, broken argument parsing) fails the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def _run(script: str, *args: str, timeout: int = 240, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(EXAMPLES_DIR / script), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)


@pytest.mark.parametrize(
    "script,args,expect",
    [
        ("quickstart.py", ["--epochs", "3", "--workers", "4"], "raw computational speedup"),
        (
            "text_classification.py",
            ["--threads", "4", "--epochs", "3"],
            "Figure-4 markers",
        ),
        (
            "malicious_url_detection.py",
            ["--workers", "4", "--epochs", "3"],
            "Held-out evaluation",
        ),
        ("dataset_statistics.py", [], "Table 1"),
        ("custom_libsvm_data.py", ["--epochs", "2", "--workers", "4"], "final model"),
    ],
)
def test_example_runs(script, args, expect, tmp_path):
    # Temporary files go to a directory of the test's own, which the
    # example must leave empty.
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    result = _run(script, *args, env={**os.environ, "TMPDIR": str(scratch)})
    assert result.returncode == 0, f"{script} failed:\n{result.stdout}\n{result.stderr}"
    assert expect in result.stdout
    assert list(scratch.iterdir()) == []


def test_reproduce_figures_smoke(tmp_path):
    """The figure-reproduction driver runs end-to-end on a reduced sweep."""
    result = _run(
        "reproduce_figures.py",
        "--out", str(tmp_path),
        "--threads", "2", "4",
        timeout=600,
    )
    assert result.returncode == 0, f"reproduce_figures failed:\n{result.stdout}\n{result.stderr}"
    for artefact in ("table1.txt", "figure3.txt", "figure4.txt", "figure5.txt", "headline.json"):
        assert (tmp_path / artefact).exists(), f"missing artefact {artefact}"


def test_all_examples_have_docstring_and_main():
    """Every example documents itself and is executable as a script."""
    scripts = sorted(EXAMPLES_DIR.glob("*.py"))
    assert len(scripts) >= 5
    for script in scripts:
        text = script.read_text()
        assert text.lstrip().startswith(('#!/usr/bin/env python3\n"""', '"""')), script
        assert 'if __name__ == "__main__":' in text, script
