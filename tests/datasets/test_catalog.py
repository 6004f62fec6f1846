"""Tests for the dataset catalog (surrogate descriptors)."""

import pytest

from repro.datasets.catalog import (
    PAPER_DATASETS,
    SMOKE_DATASETS,
    get_descriptor,
    list_datasets,
)


class TestCatalogContents:
    def test_four_paper_datasets(self):
        assert set(PAPER_DATASETS) == {"news20", "url", "kdd_algebra", "kdd_bridge"}

    def test_list_datasets_default(self):
        assert sorted(list_datasets()) == sorted(PAPER_DATASETS)

    def test_list_datasets_with_smoke(self):
        names = list_datasets(include_smoke=True)
        assert "news20_smoke" in names and len(names) == 8

    def test_paper_stats_match_table1(self):
        news = PAPER_DATASETS["news20"].paper
        assert news.dimension == 1_355_191
        assert news.instances == 19_996
        bridge = PAPER_DATASETS["kdd_bridge"].paper
        assert bridge.dimension == 29_890_095
        assert bridge.psi == pytest.approx(0.877)

    def test_step_sizes_follow_paper(self):
        # λ = 0.5 everywhere except URL which uses 0.05.
        assert PAPER_DATASETS["url"].step_size == pytest.approx(0.05)
        for name in ("news20", "kdd_algebra", "kdd_bridge"):
            assert PAPER_DATASETS[name].step_size == pytest.approx(0.5)

    def test_psi_ordering_preserved(self):
        # The KDD datasets have lower psi than News20/URL in the paper; the
        # surrogate recipes encode that through the norm spread.
        assert (
            PAPER_DATASETS["kdd_bridge"].surrogate.norm_spread
            > PAPER_DATASETS["news20"].surrogate.norm_spread
        )

    def test_density_ordering_preserved(self):
        densities = {k: d.surrogate.density for k, d in PAPER_DATASETS.items()}
        assert densities["news20"] > densities["url"] > densities["kdd_algebra"]
        assert densities["kdd_algebra"] > densities["kdd_bridge"] * 0.9


class TestGetDescriptor:
    def test_lookup_by_name(self):
        assert get_descriptor("url").name == "url"

    def test_lookup_smoke_variant(self):
        desc = get_descriptor("kdd_algebra_smoke")
        assert desc.name == "kdd_algebra_smoke"
        assert desc.surrogate.n_samples < PAPER_DATASETS["kdd_algebra"].surrogate.n_samples

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_descriptor("imagenet")

    def test_smoke_catalogue_covers_all(self):
        assert set(SMOKE_DATASETS) == set(PAPER_DATASETS)
