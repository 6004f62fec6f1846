"""Execution of experiment configurations.

:class:`ExperimentRunner` turns :class:`~repro.experiments.configs.RunSpec`
entries into trained :class:`~repro.metrics.tracing.RunRecord` objects.  A
shared :class:`~repro.async_engine.cost_model.CostModel` is used for every
run of one experiment so the simulated wall-clock axes of different solvers
are directly comparable.

Two orthogonal features make full paper sweeps practical:

* **Artifact reuse** — when the runner is given an
  :class:`~repro.experiments.store.ArtifactStore`, every completed run is
  persisted under its content-addressed key and skipped on re-invocation,
  so an interrupted sweep resumes where it stopped and ``report`` works
  from disk alone.
* **Parallel scheduling** — independent specs are dispatched through a
  process pool (``jobs > 1``) capped by the cluster tier's
  :func:`~repro.cluster.driver.available_parallelism`.  Specs that resolve
  to ``async_mode="process"`` spawn their own worker processes and expect
  the whole machine, so they always run exclusively in the parent, after
  the pooled specs.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.async_engine.cost_model import CostModel
from repro.core.balancing import BalancingDecision
from repro.datasets.loader import Dataset, load_dataset
from repro.experiments.configs import ExperimentConfig, RunSpec
from repro.experiments.store import ArtifactStore, run_identity, identity_key
from repro.metrics.tracing import RunRecord
from repro.objectives.registry import make_objective
from repro.solvers.base import Problem
from repro.solvers.registry import make_solver
from repro.utils.logging import get_logger

LOGGER = get_logger("experiments.runner")


def _coerce_solver_kwargs(kwargs: Dict[str, object]) -> Dict[str, object]:
    """Translate config-file-friendly values into the solver API types."""
    out = dict(kwargs)
    force = out.get("force_balancing")
    if isinstance(force, str):
        out["force_balancing"] = BalancingDecision(force)
    return out


def build_problem(
    dataset: str,
    *,
    objective: str = "logistic_l1",
    regularization: float = 1e-4,
    seed: int = 0,
) -> Problem:
    """Load a dataset and wrap it into a :class:`~repro.solvers.base.Problem`."""
    ds: Dataset = load_dataset(dataset, seed=seed)
    obj = make_objective(objective, eta=regularization)
    return Problem(X=ds.X, y=ds.y, objective=obj, name=dataset)


def run_single(
    spec: RunSpec,
    *,
    problem: Optional[Problem] = None,
    objective: str = "logistic_l1",
    regularization: float = 1e-4,
    cost_model: Optional[CostModel] = None,
) -> RunRecord:
    """Execute one run spec and return its record."""
    if problem is None:
        problem = build_problem(
            spec.dataset, objective=objective, regularization=regularization, seed=spec.seed
        )
    solver_kwargs = _coerce_solver_kwargs(spec.kwargs())
    solver = make_solver(
        spec.solver,
        step_size=spec.step_size,
        epochs=spec.epochs,
        num_workers=spec.num_workers,
        seed=spec.seed,
        cost_model=cost_model,
        **solver_kwargs,
    )
    started = time.perf_counter()
    result = solver.fit(problem)
    train_seconds = time.perf_counter() - started
    record = RunRecord(
        solver=spec.solver,
        dataset=spec.dataset,
        num_workers=spec.num_workers,
        curve=result.curve,
        trace=result.trace,
        info={
            **result.info,
            "measured_train_seconds": train_seconds,
            "step_size": spec.step_size,
            # The trained iterate itself: this is what turns a stored
            # artifact into a servable model (repro.serving loads it into
            # an immutable ScoringModel).
            "weights": result.weights,
        },
    )
    LOGGER.info(
        "run %s: best_error=%.4f final_rmse=%.4f sim_time=%.3fs wall=%.2fs",
        record.label,
        record.curve.best_error_rate,
        record.curve.final_rmse,
        record.curve.total_time,
        train_seconds,
    )
    return record


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` request against the machine's usable cores.

    ``None`` and ``1`` mean serial; ``0`` means "auto" (every usable core);
    any other value is capped by the cluster tier's affinity-aware
    :func:`~repro.cluster.driver.available_parallelism`.
    """
    from repro.cluster.driver import available_parallelism

    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 means auto)")
    cores = available_parallelism()
    if jobs == 0:
        return cores
    return max(1, min(jobs, cores))


def _pin_resolved_execution(spec: RunSpec, identity: Dict[str, Any]) -> RunSpec:
    """Make the identity's resolved ``async_mode``/``kernel`` explicit on a spec.

    Pool workers need not see the environment the identity was resolved
    under: a ``forkserver`` pool (``REPRO_CLUSTER_START_METHOD``) forks
    from a server started before any later change to
    ``REPRO_ASYNC_MODE``/``REPRO_KERNEL_BACKEND``, so a spec relying on an
    ambient default could train something other than what
    :func:`~repro.experiments.store.run_identity` hashed.  Pinning the
    resolved values as explicit kwargs makes the worker execute exactly
    the identity regardless of the start method.
    """
    from dataclasses import replace

    kwargs = dict(spec.solver_kwargs)
    if identity.get("async_mode") is not None:
        kwargs.setdefault("async_mode", identity["async_mode"])
    if identity.get("kernel") is not None:
        kwargs.setdefault("kernel", identity["kernel"])
    return replace(spec, solver_kwargs=tuple(sorted(kwargs.items())))


def _pool_execute(
    payload: Tuple[int, RunSpec, str, float, int, CostModel],
) -> Tuple[int, RunRecord]:
    """Process-pool entry point: build the problem locally and run one spec.

    The problem is rebuilt inside the worker (datasets are generated from
    the config seed, so this is deterministic) — shipping the CSR matrix
    through the pool would cost more than regenerating it.
    """
    index, spec, objective, regularization, seed, cost_model = payload
    problem = build_problem(
        spec.dataset, objective=objective, regularization=regularization, seed=seed
    )
    record = run_single(spec, problem=problem, cost_model=cost_model)
    return index, record


@dataclass
class RunnerStats:
    """How the most recent :meth:`ExperimentRunner.run` satisfied its specs."""

    trained: int = 0
    reused: int = 0
    skipped: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (for CLI/JSON output)."""
        return {"trained": self.trained, "reused": self.reused, "skipped": self.skipped}


class RecordSet:
    """A queryable collection of :class:`RunRecord` plus the shared cost model.

    This is the interface the figure/table builders consume; it is
    satisfied both by a live :class:`ExperimentRunner` and by records
    re-hydrated from an :class:`~repro.experiments.store.ArtifactStore`
    (``python -m repro report``).
    """

    def __init__(
        self,
        records: Optional[Iterable[RunRecord]] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.records: List[RunRecord] = list(records or [])
        self.cost_model = cost_model or CostModel()

    @classmethod
    def from_store(
        cls,
        store: Union[ArtifactStore, str],
        *,
        cost_model: Optional[CostModel] = None,
        dataset: Optional[str] = None,
        solver: Optional[str] = None,
        async_mode: Optional[str] = None,
    ) -> "RecordSet":
        """Load every stored artifact (optionally filtered) into a record set.

        ``async_mode`` filters on the mode recorded in each run's info
        (serial solvers, which have none, always pass) — one store can hold
        the same sweep under several execution modes, and the figure
        builders expect one record per (dataset, solver, concurrency).
        """
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        records = [
            r
            for r in store.records()
            if (dataset is None or r.dataset == dataset)
            and (solver is None or r.solver == solver)
            and (
                async_mode is None
                or r.info.get("async_mode") is None
                or r.info.get("async_mode") == async_mode
            )
        ]
        return cls(records, cost_model=cost_model)

    # ------------------------------------------------------------------ #
    # Lookup helpers used by the figure builders
    # ------------------------------------------------------------------ #
    def find(
        self,
        *,
        dataset: Optional[str] = None,
        solver: Optional[str] = None,
        num_workers: Optional[int] = None,
    ) -> List[RunRecord]:
        """All records matching the given filters."""
        out = []
        for record in self.records:
            if dataset is not None and record.dataset != dataset:
                continue
            if solver is not None and record.solver != solver:
                continue
            if num_workers is not None and record.num_workers != num_workers:
                continue
            out.append(record)
        return out

    def get(self, dataset: str, solver: str, num_workers: Optional[int] = None) -> RunRecord:
        """Exactly one record matching the filters (raises when 0 or >1 match)."""
        matches = self.find(dataset=dataset, solver=solver, num_workers=num_workers)
        if len(matches) != 1:
            hint = (
                "; a store holding overlapping sweeps has duplicates — collapse "
                "them with RecordSet.deduplicated()" if len(matches) > 1 else ""
            )
            raise LookupError(
                f"expected exactly one record for ({dataset}, {solver}, {num_workers}), "
                f"found {len(matches)}{hint}"
            )
        return matches[0]

    def deduplicated(self, *, prefer_async_mode: Optional[str] = None) -> "RecordSet":
        """A copy holding exactly one record per ``(dataset, solver, num_workers)``.

        A store can hold the same combination several times — e.g. a
        ``figures`` sweep (engine-default mode) next to a ``cluster`` sweep
        (explicit ``per_sample`` plus ``process`` runs) — but the figure
        builders expect one record per combination.  Duplicates collapse
        deterministically: records executed under ``prefer_async_mode``
        (default: the engine's default mode, i.e. the simulated curves the
        paper plots) win, remaining ties break on the mode name and the
        canonical summary encoding.
        """
        import json

        from repro.runtime import default_async_mode

        preferred = prefer_async_mode or default_async_mode()

        def rank(record: RunRecord) -> Tuple[int, str, str]:
            mode = record.info.get("async_mode")
            return (
                0 if mode in (None, preferred) else 1,
                str(mode or ""),
                json.dumps(record.summary(), sort_keys=True, default=str),
            )

        groups: Dict[Tuple[str, str, int], List[RunRecord]] = {}
        for record in self.records:
            groups.setdefault((record.dataset, record.solver, record.num_workers), []).append(record)
        keep = {id(min(group, key=rank)) for group in groups.values()}
        return RecordSet(
            [r for r in self.records if id(r) in keep], cost_model=self.cost_model
        )

    def summary_rows(self) -> List[Dict[str, object]]:
        """Flat summary rows of every record (for the report renderer)."""
        return [r.summary() for r in self.records]

    def __len__(self) -> int:
        return len(self.records)


class ExperimentRunner(RecordSet):
    """Runs every spec of an :class:`ExperimentConfig`, caching datasets and problems.

    Parameters
    ----------
    config:
        The sweep to execute.
    cost_model:
        Shared pricing model (one per experiment so solvers are comparable).
    store:
        Optional artifact store (instance or directory path).  When given,
        completed runs are persisted and re-invocations skip them.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        cost_model: Optional[CostModel] = None,
        store: Union[ArtifactStore, str, None] = None,
    ) -> None:
        super().__init__(records=None, cost_model=cost_model)
        self.config = config
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store: Optional[ArtifactStore] = store
        self.stats = RunnerStats()
        self._problems: Dict[str, Problem] = {}

    def problem_for(self, dataset: str) -> Problem:
        """The (cached) problem instance for ``dataset``."""
        if dataset not in self._problems:
            self._problems[dataset] = build_problem(
                dataset,
                objective=self.config.objective,
                regularization=self.config.regularization,
                seed=self.config.seed,
            )
        return self._problems[dataset]

    # ------------------------------------------------------------------ #
    def plan(self) -> List[Tuple[RunSpec, str, Dict[str, Any], str]]:
        """The execution plan: ``(spec, key, identity, status)`` per runnable spec.

        Status is ``"cached"`` when the store already holds the artifact,
        else ``"pending"``.  ``solver == "none"`` placeholder specs (Table 1)
        are excluded — they involve no training.
        """
        plan = []
        for spec in self.config.runs:
            if spec.solver == "none":
                continue
            identity = run_identity(
                spec,
                objective=self.config.objective,
                regularization=self.config.regularization,
                cost_model=self.cost_model,
                dataset_seed=self.config.seed,
            )
            key = identity_key(identity)
            status = "cached" if (self.store is not None and self.store.contains(key)) else "pending"
            plan.append((spec, key, identity, status))
        return plan

    def run(self, *, jobs: Optional[int] = None, force: bool = False) -> List[RunRecord]:
        """Execute every run in the configuration (training runs only).

        Parameters
        ----------
        jobs:
            Parallel worker processes for independent specs (``None``/1 =
            serial, 0 = one per usable core; always capped by the machine).
        force:
            Re-train even when the store already holds the artifact.
        """
        plan = self.plan()
        self.records = [None] * len(plan)  # type: ignore[list-item]
        self.stats = RunnerStats(skipped=len(self.config.runs) - len(plan))

        pending: List[Tuple[int, RunSpec, str, Dict[str, Any]]] = []
        for index, (spec, key, identity, status) in enumerate(plan):
            if status == "cached" and not force:
                self.records[index] = self.store.load(key)  # type: ignore[union-attr]
                self.stats.reused += 1
                LOGGER.info("reusing artifact %s for %s/%s", key[:12], spec.dataset, spec.solver)
            else:
                pending.append((index, spec, key, identity))

        # Specs resolving to the process cluster spawn their own workers
        # and expect the machine to themselves; everything else can share
        # a pool.
        exclusive = [p for p in pending if p[3].get("async_mode") == "process"]
        poolable = [p for p in pending if p[3].get("async_mode") != "process"]
        effective_jobs = resolve_jobs(jobs)

        if effective_jobs > 1 and len(poolable) > 1:
            self._run_pooled(poolable, effective_jobs)
        else:
            for index, spec, key, identity in poolable:
                self._run_one(index, spec, key, identity)
        for index, spec, key, identity in exclusive:
            self._run_one(index, spec, key, identity)

        assert all(r is not None for r in self.records)
        return self.records

    # ------------------------------------------------------------------ #
    def _store_record(self, key: str, identity: Dict[str, Any], record: RunRecord) -> None:
        if self.store is not None:
            self.store.save(key, record, identity)

    def _run_one(self, index: int, spec: RunSpec, key: str, identity: Dict[str, Any]) -> None:
        record = run_single(
            spec,
            problem=self.problem_for(spec.dataset),
            cost_model=self.cost_model,
        )
        self._store_record(key, identity, record)
        self.records[index] = record
        self.stats.trained += 1

    def _run_pooled(
        self, pending: List[Tuple[int, RunSpec, str, Dict[str, Any]]], jobs: int
    ) -> None:
        """Dispatch independent specs through a process pool.

        Artifacts are saved as each run *completes* (not at the end), so a
        killed sweep keeps everything that finished.
        """
        from repro.cluster.driver import default_start_method

        by_index = {index: (key, identity) for index, _, key, identity in pending}
        payloads = [
            (index, _pin_resolved_execution(spec, identity), self.config.objective,
             self.config.regularization, self.config.seed, self.cost_model)
            for index, spec, _, identity in pending
        ]
        context = mp.get_context(default_start_method())
        workers = min(jobs, len(payloads))
        LOGGER.info("scheduling %d runs over %d pool workers", len(payloads), workers)
        first_error: Optional[BaseException] = None
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = {pool.submit(_pool_execute, payload) for payload in payloads}
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    # A failed run must not discard completed siblings in
                    # the same batch — save every success first, re-raise
                    # after the pool drains.
                    try:
                        index, record = future.result()
                    except BaseException as exc:
                        if first_error is None:
                            first_error = exc
                        continue
                    key, identity = by_index[index]
                    self._store_record(key, identity, record)
                    self.records[index] = record
                    self.stats.trained += 1
        if first_error is not None:
            raise first_error


__all__ = [
    "ExperimentRunner",
    "RecordSet",
    "RunnerStats",
    "resolve_jobs",
    "run_single",
    "build_problem",
]
