"""Solver base classes and the problem container.

A :class:`Problem` bundles the design matrix, labels and objective; a
:class:`BaseSolver` trains a model on it and returns a
:class:`~repro.solvers.results.TrainResult` whose convergence curve carries
both the iterative (epoch) and absolute (simulated wall-clock) x-axes.
The wall-clock is produced by the shared
:class:`~repro.async_engine.cost_model.CostModel`, so serial and
asynchronous solvers are directly comparable — exactly the comparison the
paper's Figure 4 makes.  :class:`AsyncSolver` is the shared declaration of
the asynchronous solvers, which run through the execution runtime
(:mod:`repro.runtime`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.async_engine.cost_model import CostModel
from repro.async_engine.events import EpochEvent, ExecutionTrace
from repro.async_engine.staleness import StalenessModel
from repro.core.balancing import random_order
from repro.core.partition import partition_dataset
from repro.kernels.base import KernelBackend
from repro.kernels.registry import resolve_backend
from repro.metrics.convergence import MetricsRecorder
from repro.objectives.base import Objective
from repro.runtime import ExecutionRequest, execute, resolve_async_mode
from repro.solvers.results import TrainResult
from repro.sparse.csr import CSRMatrix
from repro.utils.rng import RandomState, as_rng


@dataclass
class Problem:
    """A finite-sum optimisation problem instance.

    Attributes
    ----------
    X, y:
        Design matrix and labels/targets.
    objective:
        The loss (including its regulariser).
    name:
        Used in labels and reports.
    lipschitz:
        Optional cached per-sample Lipschitz constants; computed lazily by
        :meth:`lipschitz_constants` when absent.
    """

    X: CSRMatrix
    y: np.ndarray
    objective: Objective
    name: str = "problem"
    lipschitz: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        if self.y.shape[0] != self.X.n_rows:
            raise ValueError(
                f"label count {self.y.shape[0]} does not match sample count {self.X.n_rows}"
            )

    @property
    def n_samples(self) -> int:
        """Number of training samples."""
        return self.X.n_rows

    @property
    def n_features(self) -> int:
        """Dimensionality of the model."""
        return self.X.n_cols

    def lipschitz_constants(self) -> np.ndarray:
        """Per-sample Lipschitz constants (cached)."""
        if self.lipschitz is None:
            self.lipschitz = self.objective.lipschitz_constants(self.X, self.y)
        return self.lipschitz

    def recorder(self, label: str = "", kernel=None) -> MetricsRecorder:
        """A metrics recorder evaluating on the full training set."""
        return MetricsRecorder(self.objective, self.X, self.y, label=label, kernel=kernel)


class EpochEngine:
    """Shared serial epoch-loop state: weights and trace.

    Every serial solver runs the same outer loop — initialise the weight
    vector, execute one epoch body, aggregate the epoch's operation counters
    into an :class:`EpochEvent` and report the epoch's weights.  The engine
    owns that machinery; the solver supplies only the epoch body, which
    performs its arithmetic through the solver's kernel backend.
    """

    def __init__(self, problem: Problem, initial_weights: Optional[np.ndarray] = None) -> None:
        self.problem = problem
        d = problem.n_features
        if initial_weights is None:
            self.w = np.zeros(d)
        else:
            self.w = np.ascontiguousarray(initial_weights, dtype=np.float64).copy()
            if self.w.shape != (d,):
                raise ValueError(f"initial_weights must have shape ({d},), got {self.w.shape}")
        self.trace = ExecutionTrace()

    def run(self, epochs: int, body, on_epoch: Callable[[int, np.ndarray], None]) -> None:
        """Execute ``epochs`` iterations of ``body(epoch, event)``.

        The body mutates ``self.w`` in place and folds its operation
        counts into ``event``; after each epoch the
        engine appends the event to the trace and calls
        ``on_epoch(epoch, weights)`` with a copy of the weights.
        """
        for epoch in range(epochs):
            event = EpochEvent(epoch=epoch)
            body(epoch, event)
            self.trace.add_epoch(event)
            on_epoch(epoch, self.w.copy())

    def run_sample_block(
        self, kernel: KernelBackend, obj: Objective, rows: np.ndarray, scales: np.ndarray
    ) -> int:
        """Execute one schedule block of per-sample steps on ``self.w``.

        Hands the whole block to the kernel's
        :meth:`~repro.kernels.base.KernelBackend.run_sample_block`
        primitive: on a backend with a fused native loop this is a single C
        call per epoch; everywhere else the base-class default performs the
        identical per-step ``sample_update`` loop, so trajectories are
        unchanged.  Returns the total gradient nnz of the block.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        scales = np.ascontiguousarray(scales, dtype=np.float64)
        return kernel.run_sample_block(
            self.w, obj, self.problem.X, self.problem.y, rows, scales
        )


class BaseSolver(ABC):
    """Common machinery shared by all solvers.

    Parameters
    ----------
    step_size:
        Base step size λ.
    epochs:
        Number of passes over the data.
    seed:
        Master seed.
    cost_model:
        The cost model translating operation counts into simulated seconds;
        a shared default instance is used when omitted so that all solvers
        in one experiment are priced identically.
    kernel:
        Compute-kernel backend (instance, registry name, or ``None`` for the
        configured default — see :mod:`repro.kernels`).  All of the solver's
        arithmetic dispatches through it.
    """

    #: Name used in curve labels, registries and reports.
    name: str = "base"

    def __init__(
        self,
        *,
        step_size: float = 0.1,
        epochs: int = 10,
        seed: RandomState = 0,
        cost_model: Optional[CostModel] = None,
        record_every: int = 1,
        kernel: Union[KernelBackend, str, None] = None,
    ) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if record_every < 1:
            raise ValueError("record_every must be >= 1")
        self.step_size = float(step_size)
        self.epochs = int(epochs)
        self.seed = seed
        self.cost_model = cost_model or CostModel()
        self.record_every = int(record_every)
        self.kernel = resolve_backend(kernel)

    # ------------------------------------------------------------------ #
    @abstractmethod
    def fit(self, problem: Problem, **kwargs) -> TrainResult:
        """Train on ``problem`` and return the result."""

    # ------------------------------------------------------------------ #
    # Helpers shared by the concrete solvers
    # ------------------------------------------------------------------ #
    #: How many workers share the epoch's work when the cost model prices
    #: the trace (1 for serial solvers; :class:`AsyncSolver` overrides it).
    parallel_workers: int = 1

    def _recording(
        self, problem: Problem
    ) -> Tuple[MetricsRecorder, Callable[[int, np.ndarray], None]]:
        """A metrics recorder and the epoch hook that fills it.

        The hook evaluates every ``record_every``-th epoch, and the last
        one, as it ends, through :meth:`MetricsRecorder.record`; no weight
        vector outlives its evaluation.  :meth:`_finalize` adds the
        iteration and wall-clock axes once the run returns.
        """
        recorder = problem.recorder(label=f"{self.name}[{problem.name}]", kernel=self.kernel)
        last = self.epochs - 1

        def on_epoch(epoch: int, weights: np.ndarray) -> None:
            if epoch % self.record_every == 0 or epoch == last:
                recorder.record(epoch=epoch, weights=weights)

        return recorder, on_epoch

    def _finalize(
        self,
        recorder: MetricsRecorder,
        weights: np.ndarray,
        trace: ExecutionTrace,
        *,
        info: Optional[Dict[str, Any]] = None,
        include_sampling: bool = True,
        wall_clock: Optional[np.ndarray] = None,
    ) -> TrainResult:
        """Turn the recorded curve, final weights and trace into a :class:`TrainResult`.

        Prices the trace with the cost model — unless ``wall_clock``
        (cumulative seconds per epoch) is supplied, in which case the curve
        carries that *measured* time axis instead (the process-cluster
        backend's case) — and sets each recorded epoch's iteration and
        wall-clock values from it.
        """
        if wall_clock is not None:
            wall = np.ascontiguousarray(wall_clock, dtype=np.float64)
            if wall.shape[0] != len(trace.epochs):
                raise ValueError("wall_clock must have one entry per traced epoch")
        else:
            wall = self.cost_model.trace_wall_clock(
                trace, self.parallel_workers, include_sampling=include_sampling
            )
        iterations = np.cumsum([e.iterations for e in trace.epochs])
        curve = recorder.curve
        curve.iterations = [int(iterations[epoch]) for epoch in curve.epochs]
        curve.wall_clock = [float(wall[epoch]) for epoch in curve.epochs]
        return TrainResult(
            solver=self.name, weights=weights, curve=curve, trace=trace, info=dict(info or {})
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(step_size={self.step_size}, epochs={self.epochs}, "
            f"seed={self.seed!r})"
        )


class AsyncSolver(BaseSolver):
    """Common declaration of the asynchronous solvers.

    An asynchronous solver declares *what* to run — a registered update
    rule, a sampler configuration and a data partition — and hands the
    *how* to the execution runtime (:mod:`repro.runtime`), which runs it on
    the tier ``async_mode`` selects.  The default :meth:`fit` shards a
    random order uniformly over the workers and runs :attr:`rule` on it;
    ASGD is nothing more than that, SVRG-ASGD picks its rule from a flag,
    and IS-ASGD overrides :meth:`fit` with Algorithm 4's balancing and
    importance partition.

    Parameters
    ----------
    num_workers:
        Degree of concurrency (the paper's thread count).
    staleness:
        Delay model for the simulated tiers; ``None`` leaves the default to
        :meth:`~repro.runtime.ExecutionRequest.resolved_staleness`
        (``UniformDelay(num_workers - 1)``), matching the assumption that
        the maximum delay is proportional to concurrency.
    async_mode:
        Execution backend, resolved through the runtime registry:
        ``"per_sample"``, ``"batched"`` or ``"process"``; ``None`` resolves
        via :func:`repro.runtime.resolve_async_mode` (process default, then
        ``REPRO_ASYNC_MODE``).  See ``docs/runtime.md`` for the capability
        matrix.
    batch_size:
        Macro-step length for the batched/process backends (``"auto"``
        scales with the backend's own heuristic).

    The remaining parameters are :class:`BaseSolver`'s.
    """

    #: Registered update rule this solver declares (:mod:`repro.rules`).
    rule: str

    def __init__(
        self,
        *,
        step_size: float = 0.1,
        epochs: int = 10,
        num_workers: int = 4,
        seed: RandomState = 0,
        cost_model: Optional[CostModel] = None,
        record_every: int = 1,
        staleness: Optional[StalenessModel] = None,
        kernel: Union[KernelBackend, str, None] = None,
        async_mode: Optional[str] = None,
        batch_size: Union[int, str] = "auto",
    ) -> None:
        super().__init__(step_size=step_size, epochs=epochs, seed=seed,
                         cost_model=cost_model, record_every=record_every, kernel=kernel)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self.staleness = staleness
        self.async_mode = resolve_async_mode(async_mode)
        self.batch_size = batch_size

    @property
    def parallel_workers(self) -> int:
        return self.num_workers

    def _info(self) -> Dict[str, Any]:
        """Solver diagnostics carried into the result's info dict."""
        return {"num_workers": self.num_workers}

    def fit(self, problem: Problem, *, initial_weights: Optional[np.ndarray] = None) -> TrainResult:
        """Run :attr:`rule` over uniform per-worker shards of ``problem``."""
        rng = as_rng(self.seed)
        order = random_order(problem.n_samples, seed=rng)
        partition = partition_dataset(order, problem.lipschitz_constants(), self.num_workers,
                                      scheme="uniform")
        return self._execute_async(
            problem,
            partition,
            rng,
            staleness=self.staleness,
            include_sampling=False,
            extra_info=self._info(),
            initial_weights=initial_weights,
        )

    def _execute_async(
        self,
        problem: Problem,
        partition,
        rng,
        *,
        staleness,
        include_sampling: bool,
        extra_info: Optional[Dict[str, Any]] = None,
        initial_weights: Optional[np.ndarray] = None,
        importance_sampling: bool = False,
        step_clip: float = 100.0,
        reshuffle: bool = True,
        regenerate: bool = False,
    ) -> TrainResult:
        """Run an async solver's declaration through the execution runtime.

        Draws the worker/engine seeds from ``rng`` (in that order), fills
        the :class:`~repro.runtime.ExecutionRequest` for :attr:`rule`,
        dispatches to the backend ``self.async_mode`` selects and finalises
        the result — with the *measured* wall-clock axis whenever the
        backend provides one.  ``extra_info`` carries solver-specific
        diagnostics into the result's info dict (backend info wins on
        shared keys).
        """
        recorder, on_epoch = self._recording(problem)
        request = ExecutionRequest(
            X=problem.X,
            y=problem.y,
            objective=problem.objective,
            partition=partition,
            rule=self.rule,
            step_size=self.step_size,
            epochs=self.epochs,
            worker_seed=int(rng.integers(0, 2**31 - 1)),
            engine_seed=int(rng.integers(0, 2**31 - 1)),
            importance_sampling=importance_sampling,
            step_clip=step_clip,
            staleness=staleness,
            batch_size=self.batch_size,
            kernel=self.kernel,
            initial_weights=initial_weights,
            reshuffle=reshuffle,
            regenerate=regenerate,
            epoch_callback=on_epoch,
        )
        result = execute(self.async_mode, request)
        info = dict(extra_info or {})
        info.update(result.info)
        return self._finalize(
            recorder,
            result.weights,
            result.trace,
            include_sampling=include_sampling,
            info=info,
            wall_clock=result.wall_clock,
        )


__all__ = ["Problem", "BaseSolver", "AsyncSolver", "EpochEngine"]
