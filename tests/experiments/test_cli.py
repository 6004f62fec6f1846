"""Tests for the ``python -m repro`` CLI (driven in-process via ``main(argv)``)."""

import json

import pytest

from repro.cli.main import main
from repro.experiments.store import ArtifactStore


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SWEEP = ("sweep", "--config", "figures", "--smoke", "--datasets", "news20",
         "--threads", "4", "--epochs", "2")


class TestList:
    def test_registries_json(self, capsys):
        code, out, _ = _run(capsys, "list", "--json")
        assert code == 0
        registries = json.loads(out)
        # The registries are closed tables: pin each one exactly.
        assert registries["solvers"] == ["asgd", "is_asgd", "is_sgd", "sgd", "svrg_asgd"]
        assert registries["kernel_backends"] == ["native", "reference", "vectorized"]
        assert registries["async_modes"] == ["per_sample", "batched", "process"]
        assert registries["rules"] == ["is_sgd", "sgd", "svrg", "svrg_skip_dense"]
        assert registries["configs"] == ["ablation", "cluster", "figures", "table1"]
        assert registries["objectives"] == [
            "hinge", "hinge_l2", "least_squares", "logistic", "logistic_elastic",
            "logistic_l1", "logistic_l2", "ridge", "squared_hinge", "squared_hinge_l2",
        ]
        assert "news20_smoke" in registries["datasets"]

    def test_backends_capability_matrix(self, capsys):
        code, out, _ = _run(capsys, "list", "--json")
        assert code == 0
        matrix = json.loads(out)["backends"]
        assert [row["backend"] for row in matrix] == ["per_sample", "batched", "process"]
        process = matrix[-1]
        assert process["true_parallelism"] and process["measured_wall_clock"]
        for row in matrix:
            assert set(row) == {
                "backend", "description", "supports_batching", "true_parallelism",
                "measured_wall_clock", "deterministic", "fused_kernel_loop",
                "fault_tolerant",
            }

    def test_backends_table_printed(self, capsys):
        code, out, _ = _run(capsys, "list")
        assert code == 0
        assert "execution backends" in out
        assert "per_sample" in out and "measured_time" in out

    def test_empty_store(self, tmp_path, capsys):
        code, out, _ = _run(capsys, "list", "--store", str(tmp_path / "none"))
        assert code == 0
        assert "no artifacts" in out


class TestRun:
    def test_trains_and_reuses(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ("run", "--dataset", "news20_smoke", "--solver", "is_asgd",
                "--workers", "4", "--epochs", "2", "--store", store)
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert "trained" in out
        assert len(ArtifactStore(store)) == 1

        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert "reused from store" in out

    def test_json_output_round_trips(self, tmp_path, capsys):
        code, out, _ = _run(
            capsys, "run", "--dataset", "news20_smoke", "--solver", "sgd",
            "--epochs", "2", "--store", str(tmp_path / "store"), "--json",
        )
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        assert payload["solver"] == "sgd"
        assert len(payload["curve"]["epochs"]) == 2

    def test_unknown_solver_is_an_error(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "run", "--dataset", "news20_smoke", "--solver", "nope",
            "--store", str(tmp_path / "store"),
        )
        assert code == 2
        assert "unknown solver" in err

    def test_unknown_async_mode_is_an_error(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "run", "--dataset", "news20_smoke", "--solver", "is_asgd",
            "--async-mode", "nope", "--store", str(tmp_path / "store"),
        )
        assert code == 2
        assert "unknown async mode" in err


class TestSweep:
    def test_dry_run_trains_nothing(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code, out, _ = _run(capsys, *SWEEP, "--store", store, "--dry-run")
        assert code == 0
        assert "pending" in out
        assert "dry run: nothing executed." in out
        assert len(ArtifactStore(store)) == 0

    def test_sweep_then_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code, out, _ = _run(capsys, *SWEEP, "--store", store)
        assert code == 0
        assert "4 trained, 0 reused" in out

        code, out, _ = _run(capsys, *SWEEP, "--store", store)
        assert code == 0
        assert "0 trained, 4 reused" in out

        code, out, _ = _run(capsys, *SWEEP, "--store", store, "--dry-run")
        assert code == 0
        assert "pending" not in out.split("dry run")[0].split("status")[-1]

    def test_async_mode_threaded_through(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code, out, _ = _run(capsys, *SWEEP, "--store", store, "--async-mode", "batched")
        assert code == 0
        assert "batched" in out
        rows = ArtifactStore(store).summary_rows()
        modes = {r["async_mode"] for r in rows if r["solver"] != "sgd"}
        assert modes == {"batched"}


class TestReport:
    def test_empty_store_fails_with_hint(self, tmp_path, capsys):
        code, _, err = _run(capsys, "report", "--store", str(tmp_path / "none"))
        assert code == 1
        assert "no artifacts" in err

    def test_report_from_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        _run(capsys, *SWEEP, "--store", store)
        out_dir = tmp_path / "results"
        code, out, _ = _run(capsys, "report", "--store", store,
                            "--out", str(out_dir), "--json")
        assert code == 0
        assert "stored runs" in out
        for name in ("figure3.txt", "figure3_curves.csv", "figure4.txt",
                     "figure5.txt", "headline.json"):
            assert (out_dir / name).is_file()
        headline = json.loads((out_dir / "headline.json").read_text())
        assert "optimum_speedup_over_asgd" in headline


class TestBench:
    def test_bench_records_warm_reuse(self, tmp_path, capsys):
        output = tmp_path / "BENCH_cli.json"
        code, _, _ = _run(
            capsys, "bench", "--config", "figures", "--datasets", "news20",
            "--threads", "4", "--epochs", "2", "--output", str(output),
            "--store", str(tmp_path / "store"),
        )
        assert code == 0
        result = json.loads(output.read_text())
        assert result["cold_stats"]["trained"] == result["runs"]
        assert result["warm_stats"] == {"trained": 0, "reused": result["runs"], "skipped": 0}
        assert result["warm_seconds"] < result["cold_seconds"]


class TestFlagValidation:
    def test_async_mode_on_serial_solver_is_a_clean_error(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "run", "--dataset", "news20_smoke", "--solver", "sgd",
            "--async-mode", "batched", "--store", str(tmp_path / "store"),
        )
        assert code == 2
        assert "serial" in err and "sgd" in err

    def test_sweep_smoke_reaches_single_dataset_configs(self, tmp_path, capsys):
        code, out, _ = _run(
            capsys, "sweep", "--config", "cluster", "--smoke", "--datasets", "news20",
            "--threads", "2", "--dry-run", "--store", str(tmp_path / "store"),
        )
        assert code == 0
        assert "news20_smoke" in out
        assert "news20 " not in out  # no full-scale run planned

    def test_sweep_rejects_overrides_a_config_cannot_honour(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "sweep", "--config", "ablation", "--threads", "4",
            "--dry-run", "--store", str(tmp_path / "store"),
        )
        assert code == 2
        assert "does not accept" in err


class TestReportOverlappingSweeps:
    def test_duplicate_combinations_collapse_instead_of_crashing(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        # The same (dataset, solver, workers) combinations under two
        # execution modes: default per-sample plus explicit batched.
        assert _run(capsys, *SWEEP, "--store", store)[0] == 0
        assert _run(capsys, *SWEEP, "--store", store, "--async-mode", "batched")[0] == 0
        assert len(ArtifactStore(store)) > 4

        out_dir = tmp_path / "results"
        code, out, err = _run(capsys, "report", "--store", store,
                              "--out", str(out_dir), "--json")
        assert code == 0
        assert "collapsed" in err
        assert (out_dir / "headline.json").is_file()

    def test_async_mode_preference_selects_that_sweep(self, tmp_path, capsys):
        from repro.experiments.runner import RecordSet

        store = str(tmp_path / "store")
        _run(capsys, *SWEEP, "--store", store)
        _run(capsys, *SWEEP, "--store", store, "--async-mode", "batched")

        records = RecordSet.from_store(store)
        deduped = records.deduplicated(prefer_async_mode="batched")
        modes = {r.info.get("async_mode") for r in deduped.records if r.solver != "sgd"}
        assert modes == {"batched"}
        assert len(deduped) < len(records)


class TestBenchStoreGuard:
    def test_bench_refuses_a_prepopulated_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert _run(capsys, *SWEEP, "--store", store)[0] == 0
        code, _, err = _run(
            capsys, "bench", "--config", "figures", "--datasets", "news20",
            "--threads", "4", "--epochs", "2",
            "--output", str(tmp_path / "BENCH_cli.json"), "--store", store,
        )
        assert code == 2
        assert "cold" in err and "empty" in err


class TestReportFlagValidation:
    def test_unknown_async_mode_is_an_error_not_an_empty_report(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert _run(capsys, *SWEEP, "--store", store)[0] == 0
        code, _, err = _run(capsys, "report", "--store", store,
                            "--async-mode", "per-sample")
        assert code == 2
        assert "unknown async mode" in err

    def test_bench_no_smoke_is_parseable(self):
        from repro.cli.main import build_parser

        args = build_parser().parse_args(["bench", "--no-smoke"])
        assert args.smoke is False
        assert build_parser().parse_args(["bench"]).smoke is True


class TestServe:
    def _train(self, capsys, store):
        code, _, _ = _run(
            capsys, "run", "--dataset", "news20_smoke", "--solver", "sgd",
            "--epochs", "2", "--store", store,
        )
        assert code == 0

    def test_list_includes_serving_capabilities(self, capsys):
        code, out, _ = _run(capsys, "list", "--json")
        assert code == 0
        serving = json.loads(out)["serving"]
        assert serving["defaults"]["max_batch"] == 64
        rows = {row["objective"]: row for row in serving["objectives"]}
        assert rows["logistic_l1"]["predict_proba"] is True
        assert rows["hinge"]["predict_proba"] is False
        assert all(row["predict"] and row["decision_function"]
                   for row in rows.values())

    def test_list_prints_serving_table(self, capsys):
        code, out, _ = _run(capsys, "list")
        assert code == 0
        assert "loaded-model capabilities" in out
        assert "predict_proba" in out

    def test_unknown_backend_is_a_helpful_error(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "serve", "--backend", "bogus",
            "--store", str(tmp_path / "store"),
        )
        assert code == 2
        assert "unknown kernel backend" in err
        assert "reference" in err  # the availability-annotated listing

    def test_serve_needs_a_target(self, tmp_path, capsys):
        code, _, err = _run(capsys, "serve", "--store", str(tmp_path / "s"))
        assert code == 2
        assert "--key" in err and "--smoke" in err

    def test_missing_artifact_is_a_clean_error(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "serve", "--key", "0" * 64, "--store", str(tmp_path / "s"),
        )
        assert code == 2
        assert "no artifact matching" in err

    def test_stdin_queries_answered_in_order(self, tmp_path, capsys, monkeypatch):
        import io

        store = str(tmp_path / "store")
        self._train(capsys, store)
        lines = (
            '{"row": 0, "id": "q0"}\n'
            '{"not": "a query"}\n'
            '{"indices": [1, 2], "values": [0.25, -0.5]}\n'
            '{"indices": [999999], "values": [1.0]}\n'
            '{"indices": [1], "values": [NaN]}\n'
            '{"row": 1, "id": "q5"}\n'
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, err = _run(
            capsys, "serve", "--dataset", "news20_smoke", "--store", store,
            "--query-dataset", "news20_smoke", "--no-watch", "--proba",
        )
        assert code == 0
        responses = [json.loads(line) for line in out.splitlines()]
        assert len(responses) == 6
        assert responses[0]["id"] == "q0"
        assert 0.0 <= responses[0]["proba"] <= 1.0
        assert "error" in responses[1]  # malformed line stays in order
        assert responses[2]["model_version"] == 1
        # Rows that fail validation are answered in order, not fatal.
        assert "out of range" in responses[3]["error"]
        assert "finite" in responses[4]["error"]
        assert responses[5]["id"] == "q5" and "margin" in responses[5]
        # Provenance + queue stats go to stderr, not into the response stream.
        assert "model" in err and "stats" in err

    def test_serve_limit_stops_reading(self, tmp_path, capsys, monkeypatch):
        import io

        store = str(tmp_path / "store")
        self._train(capsys, store)
        lines = "".join('{"row": %d}\n' % i for i in range(10))
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, _ = _run(
            capsys, "serve", "--dataset", "news20_smoke", "--store", store,
            "--query-dataset", "news20_smoke", "--no-watch", "--limit", "4",
        )
        assert code == 0
        assert len(out.splitlines()) == 4
