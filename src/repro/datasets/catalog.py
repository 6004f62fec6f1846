"""Catalog of the paper's evaluation datasets and their surrogate recipes.

Table 1 of the paper lists four LibSVM datasets.  Each
:class:`DatasetDescriptor` below records the paper's reported statistics
(for reference and for the Table 1 regeneration) together with the
*scaled-down* synthetic recipe used by the benchmark harness.  Scaling
preserves the ordering of the relevant properties across datasets:

========  ===========  ============  ============  =====  =======
dataset   dimension    instances     sparsity      ψ      ρ-band
========  ===========  ============  ============  =====  =======
news20    1.36e6       2.0e4         ~1e-3 (dense) high   high
url       3.2e6        2.4e6         ~1e-5         high   medium
algebra   2.0e7        8.4e6         ~1e-7         low    low
bridge    3.0e7        1.9e7         ~1e-7         lowest low
========  ===========  ============  ============  =====  =======

"high ψ" datasets get a narrow Lipschitz spread (small IS gain), "low ψ"
datasets a heavy-tailed spread (large IS gain) — mirroring the paper's
observation that the KDD datasets benefit most from IS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.datasets.synthetic import SyntheticSpec


@dataclass(frozen=True)
class PaperStats:
    """Statistics reported in Table 1 of the paper (for reference output)."""

    dimension: int
    instances: int
    grad_sparsity: float
    psi: float
    rho: float
    source: str


@dataclass(frozen=True)
class DatasetDescriptor:
    """A named dataset: the paper's statistics plus our surrogate recipe."""

    name: str
    paper: PaperStats
    surrogate: SyntheticSpec
    step_size: float
    epochs: int
    description: str = ""


def _spec(name: str, n_samples: int, n_features: int, nnz: float, skew: float,
          spread: float, noise: float) -> SyntheticSpec:
    return SyntheticSpec(
        n_samples=n_samples,
        n_features=n_features,
        nnz_per_sample=nnz,
        feature_skew=skew,
        norm_spread=spread,
        label_noise=noise,
        name=name,
    )


#: The four surrogate datasets, keyed by short name.  Sizes are chosen so
#: the full Figure 3/4/5 sweep runs in minutes on a laptop while keeping the
#: qualitative ordering of Table 1 (news20 smallest and densest; bridge the
#: largest, sparsest and most IS-favourable).
PAPER_DATASETS: Dict[str, DatasetDescriptor] = {
    "news20": DatasetDescriptor(
        name="news20",
        paper=PaperStats(
            dimension=1_355_191,
            instances=19_996,
            grad_sparsity=1e-3,
            psi=0.972,
            rho=5e-4,
            source="JMLR",
        ),
        surrogate=_spec("news20", n_samples=2_000, n_features=4_000, nnz=60.0,
                        skew=0.9, spread=0.15, noise=0.05),
        step_size=0.5,
        epochs=15,
        description="Low dimensionality, relatively dense, high psi (small IS gain).",
    ),
    "url": DatasetDescriptor(
        name="url",
        paper=PaperStats(
            dimension=3_231_961,
            instances=2_396_130,
            grad_sparsity=1e-5,
            psi=0.964,
            rho=3e-4,
            source="ICML",
        ),
        surrogate=_spec("url", n_samples=6_000, n_features=20_000, nnz=30.0,
                        skew=1.1, spread=0.25, noise=0.04),
        step_size=0.05,
        epochs=18,
        description="Large sparse dataset with moderate psi.",
    ),
    "kdd_algebra": DatasetDescriptor(
        name="kdd_algebra",
        paper=PaperStats(
            dimension=20_216_830,
            instances=8_407_752,
            grad_sparsity=1e-7,
            psi=0.892,
            rho=1e-4,
            source="KDD",
        ),
        surrogate=_spec("kdd_algebra", n_samples=8_000, n_features=60_000, nnz=20.0,
                        skew=1.2, spread=0.7, noise=0.03),
        step_size=0.5,
        epochs=20,
        description="Extremely sparse and large; low psi so IS helps a lot.",
    ),
    "kdd_bridge": DatasetDescriptor(
        name="kdd_bridge",
        paper=PaperStats(
            dimension=29_890_095,
            instances=19_264_097,
            grad_sparsity=1e-7,
            psi=0.877,
            rho=2e-4,
            source="KDD",
        ),
        surrogate=_spec("kdd_bridge", n_samples=10_000, n_features=80_000, nnz=18.0,
                        skew=1.25, spread=0.85, noise=0.03),
        step_size=0.5,
        epochs=20,
        description="The largest and sparsest dataset; lowest psi, biggest IS gain.",
    ),
}

#: Smaller variants used by the test-suite and quick-running benchmarks.
#: The feature dimension is shrunk less aggressively than the sample count so
#: that the smoke datasets stay genuinely sparse (otherwise every update
#: conflicts and the parallel-scaling behaviour stops resembling the paper's).
SMOKE_DATASETS: Dict[str, DatasetDescriptor] = {
    key: DatasetDescriptor(
        name=f"{desc.name}_smoke",
        paper=desc.paper,
        surrogate=SyntheticSpec(
            n_samples=max(200, desc.surrogate.n_samples // 20),
            n_features=max(400, desc.surrogate.n_features // 8),
            nnz_per_sample=min(desc.surrogate.nnz_per_sample, 12.0),
            feature_skew=desc.surrogate.feature_skew,
            norm_spread=desc.surrogate.norm_spread,
            label_noise=desc.surrogate.label_noise,
            name=f"{desc.name}_smoke",
        ),
        step_size=desc.step_size,
        epochs=min(desc.epochs, 10),
        description=f"Smoke-test sized variant of {desc.name}.",
    )
    for key, desc in PAPER_DATASETS.items()
}


def list_datasets(include_smoke: bool = False) -> List[str]:
    """Names of the available surrogate datasets."""
    names = list(PAPER_DATASETS)
    if include_smoke:
        names += [f"{n}_smoke" for n in PAPER_DATASETS]
    return names


def get_descriptor(name: str) -> DatasetDescriptor:
    """Look up a dataset descriptor by name (smoke variants use the ``_smoke`` suffix)."""
    if name in PAPER_DATASETS:
        return PAPER_DATASETS[name]
    if name.endswith("_smoke"):
        base = name[: -len("_smoke")]
        if base in SMOKE_DATASETS:
            return SMOKE_DATASETS[base]
    raise KeyError(
        f"unknown dataset {name!r}; available: {', '.join(list_datasets(include_smoke=True))}"
    )


__all__ = [
    "PaperStats",
    "DatasetDescriptor",
    "PAPER_DATASETS",
    "SMOKE_DATASETS",
    "list_datasets",
    "get_descriptor",
]
