"""Tests for the experiment configurations."""

import pytest

from repro.experiments.configs import (
    FAST_THREAD_COUNTS,
    PAPER_THREAD_COUNTS,
    ExperimentConfig,
    RunSpec,
    balancing_ablation_config,
    figure_config,
    table1_config,
)


class TestRunSpec:
    def test_key_and_kwargs(self):
        spec = RunSpec(
            dataset="news20", solver="is_asgd", num_workers=8, step_size=0.5, epochs=3,
            solver_kwargs=(("force_balancing", "balance"),),
        )
        assert spec.key == ("news20", "is_asgd", 8)
        assert spec.kwargs() == {"force_balancing": "balance"}


class TestFigureConfig:
    def test_paper_thread_counts_constant(self):
        assert PAPER_THREAD_COUNTS == (16, 32, 44)

    def test_default_covers_all_datasets_and_solvers(self):
        cfg = figure_config()
        datasets = {r.dataset for r in cfg.runs}
        assert datasets == {"news20", "url", "kdd_algebra", "kdd_bridge"}
        solvers = {r.solver for r in cfg.runs}
        assert solvers == {"sgd", "asgd", "is_asgd", "svrg_asgd"}

    def test_svrg_asgd_only_on_news20(self):
        cfg = figure_config()
        svrg_datasets = {r.dataset for r in cfg.runs if r.solver == "svrg_asgd"}
        assert svrg_datasets == {"news20"}

    def test_sgd_run_once_per_dataset(self):
        cfg = figure_config()
        sgd_runs = [r for r in cfg.runs if r.solver == "sgd"]
        assert len(sgd_runs) == 4
        assert all(r.num_workers == 1 for r in sgd_runs)

    def test_async_solvers_swept_over_thread_counts(self):
        cfg = figure_config(thread_counts=(2, 4))
        asgd_workers = sorted({r.num_workers for r in cfg.runs if r.solver == "asgd"})
        assert asgd_workers == [2, 4]

    def test_step_sizes_follow_catalog(self):
        cfg = figure_config()
        url_runs = [r for r in cfg.runs if r.dataset == "url"]
        assert all(r.step_size == pytest.approx(0.05) for r in url_runs)

    def test_smoke_mode_uses_smoke_datasets(self):
        cfg = figure_config(smoke=True, datasets=["news20"])
        assert all(r.dataset == "news20_smoke" for r in cfg.runs)

    def test_epochs_override(self):
        cfg = figure_config(epochs_override=2, datasets=["url"])
        assert all(r.epochs == 2 for r in cfg.runs)

    def test_filter(self):
        cfg = figure_config()
        only_news = cfg.filter(dataset="news20")
        assert {r.dataset for r in only_news.runs} == {"news20"}
        only_is = cfg.filter(solver="is_asgd")
        assert {r.solver for r in only_is.runs} == {"is_asgd"}


class TestOtherConfigs:
    def test_table1_config_has_no_training(self):
        cfg = table1_config()
        assert all(r.solver == "none" for r in cfg.runs)
        assert len(cfg.runs) == 4

    def test_balancing_ablation_contents(self):
        cfg = balancing_ablation_config()
        solvers = [r.solver for r in cfg.runs]
        assert solvers.count("is_asgd") == 2
        assert "asgd" in solvers
        forced = {dict(r.solver_kwargs).get("force_balancing") for r in cfg.runs if r.solver == "is_asgd"}
        assert forced == {"balance", "shuffle"}


class TestClusterScalingConfig:
    def test_process_and_simulated_pairs(self):
        from repro.experiments.configs import cluster_scaling_config

        config = cluster_scaling_config(worker_counts=(1, 2, 4))
        assert len(config.runs) == 6
        modes = [dict(r.solver_kwargs).get("async_mode") for r in config.runs]
        assert modes.count("process") == 3
        assert modes.count("per_sample") == 3
        workers = sorted({r.num_workers for r in config.runs})
        assert workers == [1, 2, 4]

    def test_measured_only(self):
        from repro.experiments.configs import cluster_scaling_config

        config = cluster_scaling_config(worker_counts=(2,), include_simulated=False)
        assert len(config.runs) == 1
        assert dict(config.runs[0].solver_kwargs) == {"async_mode": "process"}


class TestConfigTable:
    """Each built-in config names only entries of the other closed tables."""

    @pytest.mark.parametrize("name", ["ablation", "cluster", "figures", "table1"])
    def test_builtin_config_names_only_builtin_entries(self, name):
        from repro.datasets.catalog import list_datasets
        from repro.experiments.configs import make_config
        from repro.objectives.registry import available_objectives
        from repro.runtime import available_backend_names
        from repro.solvers.registry import available_solvers

        config = make_config(name)
        assert config.runs
        assert config.objective in available_objectives()
        datasets = list_datasets(include_smoke=True)
        for run in config.runs:
            assert run.dataset in datasets
            # Table 1 only computes dataset statistics; every other config trains.
            if name == "table1":
                assert run.solver == "none"
            else:
                assert run.solver in available_solvers()
            mode = run.kwargs().get("async_mode")
            assert mode is None or mode in available_backend_names()

    @pytest.mark.parametrize("name", ["ablation", "cluster", "figures", "table1"])
    def test_every_config_has_a_description(self, name):
        from repro.experiments.configs import config_description

        assert config_description(name).strip()

    def test_unknown_config_lists_the_builtins(self):
        from repro.experiments.configs import make_config

        with pytest.raises(ValueError, match="available: ablation, cluster, figures, table1"):
            make_config("fig")


class TestMakeConfig:
    """The uniform CLI override namespace must map, not silently drop."""

    def test_alias_spellings_reach_each_builder(self):
        from repro.experiments.configs import make_config

        figures = make_config("figures", thread_counts=(4,), worker_counts=(4,),
                              epochs=3, epochs_override=3, smoke=True)
        assert {r.num_workers for r in figures.runs} <= {1, 4}
        assert all(r.epochs == 3 for r in figures.runs)

        cluster = make_config("cluster", thread_counts=(2,), worker_counts=(2,),
                              epochs=3, epochs_override=3)
        assert {r.num_workers for r in cluster.runs} == {2}
        assert all(r.epochs == 3 for r in cluster.runs)

    def test_single_datasets_entry_maps_onto_dataset(self):
        from repro.experiments.configs import make_config

        cluster = make_config("cluster", datasets=["url_smoke"], worker_counts=(2,))
        assert {r.dataset for r in cluster.runs} == {"url_smoke"}

    def test_multiple_datasets_for_single_dataset_config_is_an_error(self):
        from repro.experiments.configs import make_config

        with pytest.raises(ValueError, match="single dataset"):
            make_config("cluster", datasets=["news20", "url"])

    def test_smoke_maps_onto_single_dataset_configs(self):
        from repro.experiments.configs import make_config

        ablation = make_config("ablation", smoke=True, dataset="kdd_bridge")
        assert {r.dataset for r in ablation.runs} == {"kdd_bridge_smoke"}
        # Already-smoke defaults stay untouched.
        cluster = make_config("cluster", smoke=True, worker_counts=(2,))
        assert {r.dataset for r in cluster.runs} == {"news20_smoke"}

    def test_unsupported_override_is_an_error_not_a_silent_drop(self):
        from repro.experiments.configs import make_config

        with pytest.raises(ValueError, match="does not accept"):
            make_config("ablation", thread_counts=(4,), worker_counts=(4,))
        with pytest.raises(ValueError, match="does not accept"):
            make_config("table1", epochs=5, epochs_override=5)

    def test_none_overrides_are_not_given(self):
        from repro.experiments.configs import make_config

        config = make_config("figures", smoke=None, datasets=None, epochs=None)
        assert config.name == "figures_3_4_5"
