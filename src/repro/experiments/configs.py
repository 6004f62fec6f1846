"""Experiment configurations.

A :class:`RunSpec` is one (dataset, solver, concurrency) training run; an
:class:`ExperimentConfig` is the list of runs a table or figure needs plus
the shared evaluation settings.  The default configurations mirror the
paper's Section 4 setup at surrogate scale: the per-dataset step sizes
(λ = 0.5 everywhere except URL's 0.05), thread counts {16, 32, 44} and the
restriction of SVRG-ASGD to the (smallest, densest) News20 dataset.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.datasets.catalog import get_descriptor, list_datasets

#: The concurrency levels evaluated in the paper.
PAPER_THREAD_COUNTS: Tuple[int, ...] = (16, 32, 44)

#: Scaled-down concurrency levels used by the fast benchmark configurations.
FAST_THREAD_COUNTS: Tuple[int, ...] = (4, 8, 16)


@dataclass(frozen=True)
class RunSpec:
    """One training run of one solver on one dataset at one concurrency."""

    dataset: str
    solver: str
    num_workers: int
    step_size: float
    epochs: int
    seed: int = 0
    solver_kwargs: Tuple[Tuple[str, object], ...] = ()

    @property
    def key(self) -> Tuple[str, str, int]:
        """Grouping key ``(dataset, solver, num_workers)``."""
        return (self.dataset, self.solver, self.num_workers)

    def kwargs(self) -> Dict[str, object]:
        """Solver keyword arguments as a dict."""
        return dict(self.solver_kwargs)


@dataclass
class ExperimentConfig:
    """A named collection of runs plus shared settings."""

    name: str
    runs: List[RunSpec] = field(default_factory=list)
    objective: str = "logistic_l1"
    regularization: float = 1e-4
    seed: int = 0
    description: str = ""

    def filter(self, *, dataset: Optional[str] = None, solver: Optional[str] = None) -> "ExperimentConfig":
        """A copy containing only the runs matching the given dataset/solver."""
        runs = [
            r
            for r in self.runs
            if (dataset is None or r.dataset == dataset) and (solver is None or r.solver == solver)
        ]
        return ExperimentConfig(
            name=self.name,
            runs=runs,
            objective=self.objective,
            regularization=self.regularization,
            seed=self.seed,
            description=self.description,
        )

    def with_overrides(
        self,
        *,
        async_mode: Optional[str] = None,
        kernel: Optional[str] = None,
        epochs: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> "ExperimentConfig":
        """A copy with execution-layer overrides threaded into every run.

        ``async_mode`` (validated against the :mod:`repro.runtime` registry)
        is applied to the asynchronous solvers only — serial solvers do not
        accept it; ``kernel`` (validated against the kernel registry) is
        applied to every solver.  Existing ``solver_kwargs`` entries with
        the same name are replaced, so a CLI flag beats the config default.
        """
        from repro.experiments.store import ASYNC_SOLVERS
        from repro.kernels.registry import make_backend
        from repro.runtime import resolve_async_mode

        if async_mode is not None:
            resolve_async_mode(async_mode)
        if kernel is not None:
            make_backend(kernel)  # raises on unknown names
        runs: List[RunSpec] = []
        for spec in self.runs:
            kwargs = dict(spec.solver_kwargs)
            if async_mode is not None and spec.solver in ASYNC_SOLVERS:
                kwargs["async_mode"] = async_mode
            if kernel is not None and spec.solver != "none":
                kwargs["kernel"] = kernel
            runs.append(
                replace(
                    spec,
                    solver_kwargs=tuple(sorted(kwargs.items())),
                    epochs=spec.epochs if epochs is None else epochs,
                    seed=spec.seed if seed is None else seed,
                )
            )
        return ExperimentConfig(
            name=self.name,
            runs=runs,
            objective=self.objective,
            regularization=self.regularization,
            seed=self.seed if seed is None else seed,
            description=self.description,
        )


def _solvers_for(dataset: str, include_svrg_asgd: bool) -> List[str]:
    """The paper compares SGD/ASGD/IS-ASGD everywhere and adds SVRG-ASGD only
    on News20 (it cannot finish on the large sparse datasets)."""
    solvers = ["sgd", "asgd", "is_asgd"]
    if include_svrg_asgd and dataset.startswith("news20"):
        solvers.append("svrg_asgd")
    return solvers


def figure_config(
    *,
    datasets: Optional[Sequence[str]] = None,
    thread_counts: Sequence[int] = FAST_THREAD_COUNTS,
    smoke: bool = False,
    epochs_override: Optional[int] = None,
    include_svrg_asgd: bool = True,
    seed: int = 0,
) -> ExperimentConfig:
    """The sweep behind Figures 3, 4 and 5.

    Parameters
    ----------
    datasets:
        Dataset names (catalog keys); defaults to the four paper datasets.
    thread_counts:
        Concurrency levels; the paper's {16, 32, 44} by default for the full
        configuration, smaller for the fast one.
    smoke:
        Use the ``*_smoke`` surrogate sizes (test-suite scale).
    epochs_override:
        Force a fixed epoch count regardless of the per-dataset default.
    """
    names = list(datasets) if datasets is not None else list_datasets()
    if smoke:
        names = [f"{n}_smoke" if not n.endswith("_smoke") else n for n in names]
    runs: List[RunSpec] = []
    for name in names:
        desc = get_descriptor(name)
        epochs = epochs_override or desc.epochs
        for solver in _solvers_for(name, include_svrg_asgd):
            for workers in thread_counts:
                if solver == "sgd" and workers != thread_counts[0]:
                    # Serial SGD does not depend on the thread count; run it once.
                    continue
                runs.append(
                    RunSpec(
                        dataset=name,
                        solver=solver,
                        num_workers=workers if solver != "sgd" else 1,
                        step_size=desc.step_size,
                        epochs=epochs,
                        seed=seed,
                    )
                )
    return ExperimentConfig(
        name="figures_3_4_5",
        runs=runs,
        seed=seed,
        description="Iterative and absolute convergence sweep (Figures 3-5).",
    )


def cluster_scaling_config(
    *,
    dataset: str = "news20_smoke",
    solver: str = "is_asgd",
    worker_counts: Sequence[int] = (1, 2, 4),
    epochs_override: Optional[int] = None,
    include_simulated: bool = True,
    seed: int = 0,
) -> ExperimentConfig:
    """True speedup-vs-workers sweep on the multi-process cluster tier.

    Every concurrency level runs through ``async_mode="process"`` (real
    processes, *measured* wall-clock) and — when ``include_simulated`` —
    through the per-sample simulator as well, so the measured scaling curve
    can be plotted alongside the modelled one.  Records are distinguished
    by ``info["async_mode"]``.
    """
    desc = get_descriptor(dataset)
    epochs = epochs_override or desc.epochs
    runs: List[RunSpec] = []
    for workers in worker_counts:
        runs.append(
            RunSpec(
                dataset=dataset,
                solver=solver,
                num_workers=workers,
                step_size=desc.step_size,
                epochs=epochs,
                seed=seed,
                solver_kwargs=(("async_mode", "process"),),
            )
        )
        if include_simulated:
            runs.append(
                RunSpec(
                    dataset=dataset,
                    solver=solver,
                    num_workers=workers,
                    step_size=desc.step_size,
                    epochs=epochs,
                    seed=seed,
                    solver_kwargs=(("async_mode", "per_sample"),),
                )
            )
    return ExperimentConfig(
        name="cluster_scaling",
        runs=runs,
        seed=seed,
        description="Measured (process) vs simulated speedup over worker counts.",
    )


def table1_config(*, smoke: bool = False, seed: int = 0) -> ExperimentConfig:
    """The dataset-statistics 'sweep' behind Table 1 (no training involved)."""
    names = list_datasets()
    if smoke:
        names = [f"{n}_smoke" for n in names]
    runs = [
        RunSpec(dataset=name, solver="none", num_workers=1, step_size=1.0, epochs=0, seed=seed)
        for name in names
    ]
    return ExperimentConfig(
        name="table1",
        runs=runs,
        seed=seed,
        description="Dataset statistics (Table 1).",
    )


def balancing_ablation_config(
    *,
    dataset: str = "kdd_bridge_smoke",
    num_workers: int = 8,
    epochs: int = 8,
    seed: int = 0,
) -> ExperimentConfig:
    """Ablation: IS-ASGD with forced balancing vs forced shuffling vs no IS."""
    desc = get_descriptor(dataset)
    runs = [
        RunSpec(dataset=dataset, solver="is_asgd", num_workers=num_workers,
                step_size=desc.step_size, epochs=epochs, seed=seed,
                solver_kwargs=(("force_balancing", "balance"),)),
        RunSpec(dataset=dataset, solver="is_asgd", num_workers=num_workers,
                step_size=desc.step_size, epochs=epochs, seed=seed,
                solver_kwargs=(("force_balancing", "shuffle"),)),
        RunSpec(dataset=dataset, solver="asgd", num_workers=num_workers,
                step_size=desc.step_size, epochs=epochs, seed=seed),
    ]
    return ExperimentConfig(
        name="balancing_ablation",
        runs=runs,
        seed=seed,
        description="Importance balancing vs random shuffling vs plain ASGD.",
    )


# --------------------------------------------------------------------- #
# Named-configuration registry (the CLI's ``--config`` values)
# --------------------------------------------------------------------- #
_CONFIG_BUILDERS: Dict[str, Callable[..., ExperimentConfig]] = {
    "figures": figure_config,
    "cluster": cluster_scaling_config,
    "table1": table1_config,
    "ablation": balancing_ablation_config,
}


def available_configs() -> List[str]:
    """Names accepted by :func:`make_config`, sorted alphabetically."""
    return sorted(_CONFIG_BUILDERS)


def config_description(name: str) -> str:
    """First docstring line of a named configuration's builder."""
    doc = _CONFIG_BUILDERS[name].__doc__ or ""
    return doc.strip().splitlines()[0] if doc.strip() else ""


#: Override spellings that name the same knob under different builders
#: (``figure_config`` has ``thread_counts``, ``cluster_scaling_config`` has
#: ``worker_counts``, ...).  A request is satisfied when *any* spelling of
#: its group reaches the builder.
_OVERRIDE_ALIASES: Tuple[frozenset, ...] = (
    frozenset({"epochs", "epochs_override"}),
    frozenset({"thread_counts", "worker_counts"}),
    frozenset({"datasets", "dataset"}),
)


def make_config(name: str, **overrides: Any) -> ExperimentConfig:
    """Build a named configuration, translating the uniform override namespace.

    The builders take different keyword sets, so equivalent spellings are
    mapped onto whichever one the builder accepts (``epochs`` /
    ``epochs_override``, ``thread_counts`` / ``worker_counts``, a
    single-element ``datasets`` list onto ``dataset``, and ``smoke=True``
    onto a ``*_smoke`` dataset for single-dataset builders).  Overrides set
    to ``None`` are treated as "not given"; an override the builder cannot
    honour under any spelling raises :class:`ValueError` rather than being
    dropped — silently ignoring e.g. ``smoke`` would train full-scale data
    the caller asked to avoid.
    """
    try:
        builder = _CONFIG_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment config {name!r}; available: {', '.join(available_configs())}"
        ) from None
    signature = inspect.signature(builder)
    accepted = set(signature.parameters)
    given = {k: v for k, v in overrides.items() if v is not None}
    kwargs = {k: v for k, v in given.items() if k in accepted}
    dropped = set(given) - accepted

    if "datasets" in dropped and "dataset" in accepted and "dataset" not in kwargs:
        names = list(given["datasets"])
        if len(names) != 1:
            raise ValueError(
                f"config {name!r} sweeps a single dataset; pass exactly one "
                f"dataset instead of {names!r}"
            )
        kwargs["dataset"] = names[0]
    if "smoke" in dropped and "dataset" in accepted:
        if given["smoke"]:
            base = kwargs.get("dataset", signature.parameters["dataset"].default)
            if isinstance(base, str) and not base.endswith("_smoke"):
                kwargs["dataset"] = f"{base}_smoke"
        dropped.discard("smoke")
    for group in _OVERRIDE_ALIASES:
        if group & set(kwargs):
            dropped -= group
    if dropped:
        raise ValueError(
            f"config {name!r} does not accept override(s) {sorted(dropped)}; "
            f"accepted: {sorted(accepted)}"
        )
    return builder(**kwargs)


__all__ = [
    "PAPER_THREAD_COUNTS",
    "FAST_THREAD_COUNTS",
    "RunSpec",
    "ExperimentConfig",
    "figure_config",
    "cluster_scaling_config",
    "table1_config",
    "balancing_ablation_config",
    "available_configs",
    "config_description",
    "make_config",
]
