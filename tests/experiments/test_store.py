"""Tests for the content-addressed artifact store and the runner's reuse path."""

import json

import pytest

from repro.experiments.configs import ExperimentConfig, RunSpec
from repro.experiments.runner import ExperimentRunner, RecordSet, run_single
from repro.experiments.store import (
    FORMAT_VERSION,
    ArtifactStore,
    identity_key,
    run_identity,
    run_key,
)
from repro.kernels.registry import resolve_backend


def _spec(**overrides):
    base = dict(dataset="news20_smoke", solver="is_asgd", num_workers=4,
                step_size=0.5, epochs=2, seed=0)
    base.update(overrides)
    return RunSpec(**base)


@pytest.fixture(scope="module")
def trained_record():
    return run_single(_spec())


class TestRunKey:
    def test_deterministic(self):
        assert run_key(_spec()) == run_key(_spec())

    def test_sensitive_to_every_identity_field(self):
        base = run_key(_spec())
        assert run_key(_spec(seed=1)) != base
        assert run_key(_spec(epochs=3)) != base
        assert run_key(_spec(num_workers=8)) != base
        assert run_key(_spec(step_size=0.25)) != base
        assert run_key(_spec(dataset="url_smoke")) != base
        assert run_key(_spec(solver="asgd")) != base
        assert run_key(_spec(), objective="squared_hinge_l2") != base
        assert run_key(_spec(), regularization=1e-3) != base

    def test_async_mode_kwarg_changes_key(self):
        batched = _spec(solver_kwargs=(("async_mode", "batched"),))
        assert run_key(batched) != run_key(_spec())

    def test_env_default_async_mode_resolved_into_identity(self, monkeypatch):
        # A sweep under REPRO_ASYNC_MODE=batched must not collide with the
        # per-sample default.
        base = run_identity(_spec())
        assert base["async_mode"] == "per_sample"
        monkeypatch.setenv("REPRO_ASYNC_MODE", "batched")
        assert run_identity(_spec())["async_mode"] == "batched"

    def test_serial_solver_has_no_async_mode(self):
        identity = run_identity(_spec(solver="sgd", num_workers=1))
        assert identity["async_mode"] is None

    def test_kernel_default_resolved_into_identity(self, monkeypatch):
        # The identity records the kernel that runs: "native", or
        # "vectorized" where the extension cannot be built.
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        assert run_identity(_spec())["kernel"] == resolve_backend(None).name
        explicit = _spec(solver_kwargs=(("kernel", "reference"),))
        assert run_identity(explicit)["kernel"] == "reference"
        assert run_key(explicit) != run_key(_spec())

    def test_non_serializable_kwargs_rejected(self):
        bad = _spec(solver_kwargs=(("kernel", object()),))
        with pytest.raises(ValueError, match="kernel"):
            run_identity(bad)

    def test_kwargs_order_irrelevant(self):
        a = _spec(solver_kwargs=(("async_mode", "batched"), ("step_clip", 50.0)))
        b = _spec(solver_kwargs=(("step_clip", 50.0), ("async_mode", "batched")))
        assert run_key(a) == run_key(b)


class TestPinnedIdentityKeys:
    """Literal keys of stored runs: refactoring how the async mode or the
    kernel is resolved must not turn every stored artifact into a miss.

    One key per kernel that can run by default.  Each case runs with the
    kernel variable unset (the default) and set to ``vectorized``; where
    the native extension cannot be built both resolve to ``vectorized``
    and must give its key.
    """

    @pytest.fixture(autouse=True, params=[None, "vectorized"], ids=["default", "vectorized"])
    def _kernel(self, request, monkeypatch):
        monkeypatch.delenv("REPRO_ASYNC_MODE", raising=False)
        if request.param is None:
            monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        else:
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", request.param)
        return resolve_backend(None).name

    def test_async_spec_with_explicit_mode(self, _kernel):
        spec = _spec(solver_kwargs=(("async_mode", "batched"),))
        assert identity_key(run_identity(spec)) == {
            "vectorized": "3461dad1126ff1563739ff73c99ec5577b989e374b90d26446a91db2a5fa4750",
            "native": "234f845d1adaeb9001d4dba8f5aca50c4729593fb06732e28e29ebabe836a4b2",
        }[_kernel]

    def test_async_spec_with_default_mode(self, _kernel):
        assert identity_key(run_identity(_spec())) == {
            "vectorized": "903f137454324da0df89a92eb9b0ab186bf4e20eb524e12a54406e9bdb4fa86b",
            "native": "ccb5563b32b6e24fafb4503f1db8e078db09420e356612c336639f2582281c0c",
        }[_kernel]

    def test_serial_spec(self, _kernel):
        spec = _spec(solver="sgd", num_workers=1)
        assert identity_key(run_identity(spec)) == {
            "vectorized": "47ccb418d6b03d986b64d5a102debebfc007134832f904f78e4a7dc7045e1469",
            "native": "968dd4f0bb43726a1eec98ea3c385dd87621e92746c698ea7f30128ec9dba35f",
        }[_kernel]


class TestArtifactStore:
    def test_save_load_round_trip(self, tmp_path, trained_record):
        store = ArtifactStore(tmp_path / "store")
        key = run_key(_spec())
        path = store.save(key, trained_record, run_identity(_spec()))
        assert path.is_file()
        assert store.contains(key)
        clone = store.load(key)
        assert clone.curve.as_dict() == trained_record.curve.as_dict()
        assert clone.trace.epochs == trained_record.trace.epochs

    def test_missing_artifact_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert not store.contains("0" * 64)
        with pytest.raises(ValueError, match="missing or corrupt"):
            store.load("0" * 64)

    def test_corrupt_artifact_raises(self, tmp_path, trained_record):
        store = ArtifactStore(tmp_path)
        key = run_key(_spec())
        store.save(key, trained_record)
        store.path_for(key).write_text("{not json")
        with pytest.raises(ValueError, match="missing or corrupt"):
            store.load(key)

    def test_format_version_mismatch_raises(self, tmp_path, trained_record):
        store = ArtifactStore(tmp_path)
        key = run_key(_spec())
        store.save(key, trained_record)
        entry = json.loads(store.path_for(key).read_text())
        entry["format_version"] = FORMAT_VERSION + 1
        store.path_for(key).write_text(json.dumps(entry))
        with pytest.raises(ValueError, match="format_version"):
            store.load(key)

    def test_no_temp_file_left_behind(self, tmp_path, trained_record):
        store = ArtifactStore(tmp_path)
        store.save(run_key(_spec()), trained_record)
        assert not list(tmp_path.glob("*.tmp"))

    def test_keys_and_summary_rows(self, tmp_path, trained_record):
        store = ArtifactStore(tmp_path)
        key = run_key(_spec())
        store.save(key, trained_record, run_identity(_spec()))
        assert store.keys() == [key]
        assert len(store) == 1
        (row,) = store.summary_rows()
        assert row["solver"] == "is_asgd"
        assert row["async_mode"] == "per_sample"

    def test_empty_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "nonexistent")
        assert store.keys() == []
        assert store.records() == []


@pytest.fixture()
def tiny_config():
    runs = [
        RunSpec(dataset="news20_smoke", solver="sgd", num_workers=1,
                step_size=0.5, epochs=2, seed=0),
        RunSpec(dataset="news20_smoke", solver="is_asgd", num_workers=4,
                step_size=0.5, epochs=2, seed=0),
        RunSpec(dataset="news20_smoke", solver="asgd", num_workers=4,
                step_size=0.5, epochs=2, seed=0),
    ]
    return ExperimentConfig(name="tiny", runs=runs, seed=0)


class TestRunnerStoreIntegration:
    def test_second_run_reuses_everything(self, tmp_path, tiny_config):
        first = ExperimentRunner(tiny_config, store=tmp_path / "store")
        records = first.run()
        assert first.stats.as_dict() == {"trained": 3, "reused": 0, "skipped": 0}

        second = ExperimentRunner(tiny_config, store=tmp_path / "store")
        reloaded = second.run()
        assert second.stats.as_dict() == {"trained": 0, "reused": 3, "skipped": 0}
        for a, b in zip(records, reloaded):
            assert a.curve.as_dict() == b.curve.as_dict()
            assert (a.trace is None) == (b.trace is None)
            if a.trace is not None:
                assert a.trace.epochs == b.trace.epochs

    def test_partial_store_trains_only_missing(self, tmp_path, tiny_config):
        partial = ExperimentConfig(name="partial", runs=tiny_config.runs[:2], seed=0)
        ExperimentRunner(partial, store=tmp_path / "store").run()

        full = ExperimentRunner(tiny_config, store=tmp_path / "store")
        full.run()
        assert full.stats.as_dict() == {"trained": 1, "reused": 2, "skipped": 0}

    def test_force_retrains(self, tmp_path, tiny_config):
        ExperimentRunner(tiny_config, store=tmp_path / "store").run()
        runner = ExperimentRunner(tiny_config, store=tmp_path / "store")
        runner.run(force=True)
        assert runner.stats.as_dict() == {"trained": 3, "reused": 0, "skipped": 0}

    def test_plan_reports_cached_status(self, tmp_path, tiny_config):
        runner = ExperimentRunner(tiny_config, store=tmp_path / "store")
        assert [s for *_, s in runner.plan()] == ["pending"] * 3
        runner.run()
        assert [s for *_, s in runner.plan()] == ["cached"] * 3

    def test_from_store_rebuilds_figures(self, tmp_path, tiny_config):
        from repro.experiments.figures import figure3_data, headline_numbers

        ExperimentRunner(tiny_config, store=tmp_path / "store").run()
        records = RecordSet.from_store(tmp_path / "store")
        assert len(records.records) == 3
        panels = figure3_data(records)
        assert len(panels) == 1
        assert set(panels[0].curves) == {"sgd", "asgd", "is_asgd"}
        headline = headline_numbers(records)
        assert headline["optimum_speedup_over_asgd"] is not None

    def test_from_store_async_mode_filter(self, tmp_path):
        spec_ps = _spec()
        spec_b = _spec(solver_kwargs=(("async_mode", "batched"),))
        config = ExperimentConfig(name="mixed", runs=[spec_ps, spec_b], seed=0)
        ExperimentRunner(config, store=tmp_path / "store").run()
        assert len(RecordSet.from_store(tmp_path / "store").records) == 2
        batched = RecordSet.from_store(tmp_path / "store", async_mode="batched")
        assert len(batched.records) == 1
        assert batched.records[0].info["async_mode"] == "batched"


class TestPooledScheduler:
    @pytest.fixture()
    def multicore(self, monkeypatch):
        # The scheduler caps jobs at the machine's usable cores; fake a
        # multi-core box so the pool path is exercised even on 1-core CI.
        import repro.cluster.driver as driver

        monkeypatch.setattr(driver, "available_parallelism", lambda: 4)

    def test_pooled_matches_serial(self, tmp_path, tiny_config, multicore):
        pooled = ExperimentRunner(tiny_config, store=tmp_path / "store")
        pooled_records = pooled.run(jobs=2)
        assert pooled.stats.trained == 3

        serial = ExperimentRunner(tiny_config)
        serial_records = serial.run()
        for a, b in zip(pooled_records, serial_records):
            assert a.solver == b.solver
            assert a.curve.as_dict() == b.curve.as_dict()

    def test_pooled_saves_artifacts(self, tmp_path, tiny_config, multicore):
        store = ArtifactStore(tmp_path / "store")
        ExperimentRunner(tiny_config, store=store).run(jobs=2)
        assert len(store) == 3

    def test_jobs_auto_caps_at_cores(self, multicore):
        from repro.experiments.runner import resolve_jobs

        assert resolve_jobs(0) == 4
        assert resolve_jobs(16) == 4
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestIdentityCompleteness:
    def test_explicit_default_mode_hashes_like_omitted(self, monkeypatch):
        # The hoisted async_mode/kernel kwargs must not double-count:
        # spelling out the engine default is the same computation.
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        explicit = _spec(solver_kwargs=(("async_mode", "per_sample"),))
        assert run_key(explicit) == run_key(_spec())
        explicit_kernel = _spec(solver_kwargs=(("kernel", "native"),))
        assert run_key(explicit_kernel) == run_key(_spec())

    def test_hoisted_kwargs_leave_identity_kwargs(self):
        identity = run_identity(_spec(solver_kwargs=(("async_mode", "batched"),
                                                     ("step_clip", 50.0))))
        assert identity["async_mode"] == "batched"
        assert identity["kwargs"] == {"step_clip": 50.0}

    def test_cost_model_parameters_change_key(self):
        from repro.async_engine.cost_model import CostModel, CostParameters

        base = run_key(_spec())
        assert run_key(_spec(), cost_model=CostModel()) == base
        tweaked = CostModel(CostParameters(sample_draw_cost=1.0))
        assert run_key(_spec(), cost_model=tweaked) != base

    def test_runner_plan_keys_follow_its_cost_model(self, tmp_path, tiny_config):
        from repro.async_engine.cost_model import CostModel, CostParameters

        default = ExperimentRunner(tiny_config, store=tmp_path / "store")
        default.run()
        # A differently-priced sweep must not reuse the default-priced
        # artifacts: its simulated wall-clock axes would be wrong.
        tweaked = ExperimentRunner(
            tiny_config,
            cost_model=CostModel(CostParameters(sample_draw_cost=1.0)),
            store=tmp_path / "store",
        )
        tweaked.run()
        assert tweaked.stats.as_dict() == {"trained": 3, "reused": 0, "skipped": 0}


    def test_dataset_seed_is_part_of_the_identity(self, tmp_path):
        # The runner generates the problem from the *config* seed; two
        # configs differing only there must not share artifacts.
        spec = _spec(solver="sgd", num_workers=1)
        assert run_key(spec, dataset_seed=123) != run_key(spec)
        assert run_key(spec, dataset_seed=spec.seed) == run_key(spec)

        a = ExperimentConfig(name="a", runs=[spec], seed=0)
        b = ExperimentConfig(name="b", runs=[spec], seed=123)
        ExperimentRunner(a, store=tmp_path / "store").run()
        other = ExperimentRunner(b, store=tmp_path / "store")
        other.run()
        assert other.stats.as_dict() == {"trained": 1, "reused": 0, "skipped": 0}

class TestPooledFailureSalvage:
    def test_failed_run_keeps_completed_siblings(self, tmp_path, monkeypatch):
        import repro.cluster.driver as driver

        monkeypatch.setattr(driver, "available_parallelism", lambda: 4)
        runs = [
            RunSpec(dataset="news20_smoke", solver="sgd", num_workers=1,
                    step_size=0.5, epochs=2, seed=0),
            RunSpec(dataset="news20_smoke", solver="is_asgd", num_workers=4,
                    step_size=0.5, epochs=2, seed=0),
            RunSpec(dataset="news20_smoke", solver="not_a_solver", num_workers=1,
                    step_size=0.5, epochs=2, seed=0),
        ]
        config = ExperimentConfig(name="mixed_fail", runs=runs, seed=0)
        runner = ExperimentRunner(config, store=tmp_path / "store")
        with pytest.raises(Exception, match="not_a_solver"):
            runner.run(jobs=2)
        # Both good runs completed and were saved despite the failure.
        assert len(ArtifactStore(tmp_path / "store")) == 2

        good = ExperimentConfig(name="good", runs=runs[:2], seed=0)
        resumed = ExperimentRunner(good, store=tmp_path / "store")
        resumed.run()
        assert resumed.stats.as_dict() == {"trained": 0, "reused": 2, "skipped": 0}


class TestIndexCache:
    """The mtime-keyed index/entry caches added for the serving watcher.

    An unchanged store directory must cost one ``stat`` per poll — zero
    JSON parses — while any write (through this instance or an external
    one) must invalidate exactly what changed.
    """

    @staticmethod
    def _counting_loads(monkeypatch):
        import repro.experiments.store as store_module

        calls = {"n": 0}
        real_loads = json.loads

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(store_module.json, "loads", counting)
        return calls

    @staticmethod
    def _fill(store, trained_record, n, offset=0):
        keys = [f"{i + offset:064x}" for i in range(n)]
        for key in keys:
            store.save(key, trained_record, run_identity(_spec()))
        return keys

    def test_records_parse_each_artifact_once(self, tmp_path, trained_record, monkeypatch):
        store = ArtifactStore(tmp_path)
        self._fill(store, trained_record, 3)
        calls = self._counting_loads(monkeypatch)

        assert len(store.records()) == 3
        assert calls["n"] == 3  # cold: one parse per artifact
        assert len(store.records()) == 3
        assert calls["n"] == 3  # warm: zero parses
        store.summary_rows()
        store.load(store.keys()[0])
        assert calls["n"] == 3  # every read path shares the entry cache

    def test_save_invalidates_only_the_written_key(self, tmp_path, trained_record, monkeypatch):
        store = ArtifactStore(tmp_path)
        keys = self._fill(store, trained_record, 3)
        store.records()  # warm the cache
        calls = self._counting_loads(monkeypatch)

        self._fill(store, trained_record, 1, offset=10)  # a brand-new key
        assert len(store.records()) == 4
        assert calls["n"] == 1  # only the new artifact is parsed

        store.save(keys[0], trained_record, run_identity(_spec()))  # rewrite
        assert len(store.records()) == 4
        assert calls["n"] == 2  # only the rewritten artifact is re-parsed

    def test_external_writer_is_observed(self, tmp_path, trained_record):
        import time

        reader = ArtifactStore(tmp_path)
        writer = ArtifactStore(tmp_path)  # a different process, effectively
        self._fill(writer, trained_record, 1)
        assert len(reader.keys()) == 1

        time.sleep(0.01)  # a distinct directory mtime tick
        self._fill(writer, trained_record, 1, offset=1)
        # The reader never wrote, so only the directory mtime can tell it.
        assert len(reader.keys()) == 2

    def test_from_store_rides_the_cache(self, tmp_path, trained_record, monkeypatch):
        store = ArtifactStore(tmp_path)
        self._fill(store, trained_record, 2)
        calls = self._counting_loads(monkeypatch)

        assert len(RecordSet.from_store(store).records) == 2
        assert calls["n"] == 2
        assert len(RecordSet.from_store(store).records) == 2
        assert calls["n"] == 2  # second load is parse-free

    def test_index_maps_keys_to_file_mtimes(self, tmp_path, trained_record):
        store = ArtifactStore(tmp_path)
        (key,) = self._fill(store, trained_record, 1)
        index = store.index()
        assert index == {key: store.path_for(key).stat().st_mtime_ns}
        assert ArtifactStore(tmp_path / "missing").index() == {}
