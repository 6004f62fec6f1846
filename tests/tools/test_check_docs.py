"""Tests for ``tools/check_docs.py``: the rule against typed speedups and its clean-up."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_docs.py"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("text", [
    "metrics evaluation ~30× faster", "~1.6x faster", "throughput is ~6–8× higher",
    "(~6-8x iteration throughput)", "~ 35 × end to end", "~2x.",
])
def test_a_typed_speedup_is_flagged(check_docs, text):
    assert check_docs.SPEEDUP_CLAIM_RE.search(text)


@pytest.mark.parametrize("text", [
    "gated at >= 5x", "held to ≥ 3× in CI", "a 0x1F mask", "~8 ms at n=100k", "~20 examples",
    "`metrics_evaluation.speedup` in `BENCH_kernels.json`",
])
def test_a_gate_or_other_number_is_not_flagged(check_docs, text):
    assert not check_docs.SPEEDUP_CLAIM_RE.search(text)


def test_a_typed_speedup_in_a_page_fails_the_check(check_docs, tmp_path, monkeypatch):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("The fast path is ~7x faster.\n")
    (tmp_path / "docs" / "page.md").write_text("It is held to >= 5x in CI.\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    assert check_docs.check_speedup_claims() == [
        "README.md:1: typed speedup '~7x'; cite the CI gate and the BENCH_*.json key instead"
    ]


def test_the_committed_docs_carry_no_typed_speedup(check_docs):
    assert check_docs.check_speedup_claims() == []


def test_a_run_leaves_no_docs_output_behind(check_docs, tmp_path, monkeypatch):
    """Every ``repro-docs-*`` entry the runs write is removed, also after a failure."""

    def writes(name, failures):
        def runner():
            (tmp_path / name).mkdir()
            (tmp_path / name / "entry.json").write_text("{}")
            return failures
        return runner

    def writes_file():
        (tmp_path / "repro-docs-cli-bench.json").write_text("{}")
        return []

    (tmp_path / "unrelated").mkdir()
    monkeypatch.setattr(check_docs, "TMP_ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "check_reference_freshness", lambda: [])
    monkeypatch.setattr(check_docs, "run_quickstart", writes("repro-docs-cli", []))
    monkeypatch.setattr(
        check_docs, "run_doc_pages", writes("repro-docs-serving", ["docs/serving.md block 1"])
    )
    monkeypatch.setattr(check_docs, "run_examples", writes_file)
    monkeypatch.setattr(sys, "argv", ["check_docs.py"])
    assert check_docs.main() == 1
    assert [p.name for p in tmp_path.iterdir()] == ["unrelated"]
