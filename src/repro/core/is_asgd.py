"""IS-ASGD: the paper's Algorithm 4.

The solver combines every piece of the library:

1. compute the per-sample Lipschitz constants of the objective;
2. evaluate the imbalance-potential metric ρ (Eq. 20) and either
   importance-balance (Algorithm 3) or randomly shuffle the dataset;
3. partition the re-ordered data into contiguous shards, one per worker,
   and build each worker's *local* importance distribution (Eq. 12 over its
   own shard);
4. pre-generate each worker's weighted sample sequence;
5. run lock-free asynchronous execution, with every step re-weighted by
   ``1/(n_a p_i)`` for unbiasedness.

Steps 1–4 are this solver's declaration — the *what*.  Step 5 is handed to
the execution runtime (:mod:`repro.runtime`) as the registered ``is_sgd``
rule (the same coefficient math as ``sgd``; the re-weighting rides in the
sampler's step weights), so any backend can execute it: ``per_sample``
(ground truth, the DESIGN.md §5 substitution), ``batched`` or the
``process`` cluster.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.async_engine.staleness import StalenessModel, UniformDelay
from repro.core.balancing import balance_dataset
from repro.core.config import ISASGDConfig
from repro.core.importance import ImportanceScheme
from repro.core.partition import partition_dataset
from repro.solvers.base import AsyncSolver, Problem
from repro.solvers.results import TrainResult
from repro.utils.rng import as_rng


class ISASGDSolver(AsyncSolver):
    """Importance-sampled asynchronous SGD (Algorithm 4).

    Parameters
    ----------
    config:
        Full :class:`~repro.core.config.ISASGDConfig`.  ``step_size``,
        ``epochs``, ``num_workers``, ``seed`` and ``record_every`` are taken
        from the config; keyword overrides of any config field are applied
        on top of it.
    staleness:
        Optional override of the delay model (defaults to
        ``UniformDelay(config.num_workers)``, one step more than the
        other async solvers' ``num_workers - 1``).

    ``cost_model``, ``kernel``, ``async_mode`` and ``batch_size`` are
    :class:`~repro.solvers.base.AsyncSolver`'s.
    """

    name = "is_asgd"
    rule = "is_sgd"

    def __init__(
        self,
        config: Optional[ISASGDConfig] = None,
        *,
        cost_model=None,
        staleness: Optional[StalenessModel] = None,
        kernel=None,
        async_mode: Optional[str] = None,
        batch_size="auto",
        **config_overrides,
    ) -> None:
        if config is None:
            config = ISASGDConfig(**config_overrides)
        elif config_overrides:
            config = config.with_updates(**config_overrides)
        super().__init__(
            step_size=config.step_size,
            epochs=config.epochs,
            num_workers=config.num_workers,
            seed=config.seed,
            cost_model=cost_model,
            record_every=config.record_every,
            staleness=staleness,
            kernel=kernel,
            async_mode=async_mode,
            batch_size=batch_size,
        )
        self.config = config

    # ------------------------------------------------------------------ #
    def prepare_partition(self, problem: Problem, rng: np.random.Generator):
        """Steps 1-3 of Algorithm 4: Lipschitz constants, balancing, partitioning.

        Returns ``(partition, balancing_result)``; exposed separately so the
        balancing ablation benchmarks can inspect the partition without
        running training.
        """
        cfg = self.config
        L = problem.lipschitz_constants()
        balancing = balance_dataset(
            L,
            cfg.num_workers,
            zeta=cfg.zeta,
            seed=rng,
            force=cfg.force_balancing,
            use_normalized_rho=cfg.use_normalized_rho,
            method=cfg.balancing_method,
        )
        scheme = "lipschitz" if cfg.importance is ImportanceScheme.LIPSCHITZ else "uniform"
        partition = partition_dataset(balancing.order, L, cfg.num_workers, scheme=scheme)
        return partition, balancing

    def fit(self, problem: Problem, *, initial_weights: Optional[np.ndarray] = None) -> TrainResult:
        """Run IS-ASGD on ``problem``."""
        rng = as_rng(self.seed)
        cfg = self.config
        partition, balancing = self.prepare_partition(problem, rng)
        return self._execute_async(
            problem,
            partition,
            rng,
            staleness=self.staleness or UniformDelay(cfg.num_workers),
            include_sampling=True,
            extra_info=self._diagnostics(problem, partition, balancing),
            initial_weights=initial_weights,
            importance_sampling=cfg.importance is ImportanceScheme.LIPSCHITZ,
            step_clip=cfg.step_clip,
            reshuffle=not cfg.reshuffle_sequences,
            regenerate=cfg.reshuffle_sequences,
        )

    # ------------------------------------------------------------------ #
    def _diagnostics(self, problem: Problem, partition, balancing) -> dict:
        from repro.sparse.stats import psi

        L = problem.lipschitz_constants()
        return {
            "num_workers": self.config.num_workers,
            "balancing_decision": balancing.decision.value,
            "balancing_method": self.config.balancing_method,
            "rho": balancing.rho,
            "zeta": self.config.zeta,
            "psi": psi(L),
            "mass_imbalance_before": balancing.imbalance_before,
            "mass_imbalance_after": balancing.imbalance_after,
            "local_vs_global_distortion": partition.local_vs_global_distortion(),
            "importance_scheme": self.config.importance.value,
        }


__all__ = ["ISASGDSolver"]
