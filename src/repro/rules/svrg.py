"""The asynchronous SVRG update rule (Algorithm 1's inner iteration).

``v_t = ∇f_i(ŵ_t) - ∇f_i(s) + µ``: the sparse part is the coefficient
difference on the sample support, the dense part is the snapshot gradient
``µ`` applied once per iteration (or accumulated once per epoch in the
paper's skip-µ ablation).  The per-epoch sync step — snapshot, full
gradient, snapshot margins — is the rule's :meth:`epoch_begin` hook, so
every execution tier that invokes the hooks performs the identical sync.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.rules.base import EngineFacade, UpdateRuleKernel
from repro.runtime.trace_fold import fold_sync_step


class SVRGRule(UpdateRuleKernel):
    """Variance-reduced update from block-start margins + snapshot state.

    Parameters
    ----------
    objective, step_size:
        As on :class:`~repro.rules.base.UpdateRuleKernel`.
    skip_dense_term:
        The skip-µ ablation: the dense term is accumulated and applied once
        per epoch (by :meth:`epoch_end`) instead of at every iteration.
    """

    name = "svrg"
    records_per_iteration = 2
    grad_nnz_multiplier = 2
    counts_sample_draws = False

    def __init__(self, objective, step_size: float, *, skip_dense_term: bool = False) -> None:
        super().__init__(objective, step_size)
        self.skip_dense_term = bool(skip_dense_term)
        if self.skip_dense_term:
            # One sparse record per iteration; the dense term lands (and is
            # logged) once per epoch through the epoch_end hook.
            self.records_per_iteration = 1
        self.dense_delta: Optional[np.ndarray] = None
        self._snapshot_margins: Optional[np.ndarray] = None
        self._mu: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def set_snapshot(self, mu: np.ndarray, snapshot_margins: np.ndarray) -> None:
        """Install the per-epoch snapshot state (µ and the margins ``X @ s``).

        Called by :meth:`epoch_begin` on the simulated tiers and by
        the cluster worker after the driver refreshes the shared-memory
        snapshot blocks.
        """
        self._mu = mu
        self._snapshot_margins = snapshot_margins
        self.dense_delta = None if self.skip_dense_term else -self.step_size * mu

    def epoch_dense_delta(self, iterations: int) -> np.ndarray:
        """The accumulated ``-λ µ · iterations`` term of the skip-µ ablation."""
        if self._mu is None:
            raise RuntimeError("set_snapshot must be called before epoch_dense_delta")
        return -self.step_size * self._mu * iterations

    # ------------------------------------------------------------------ #
    def epoch_begin(self, engine: EngineFacade, epoch: int, event) -> None:
        """Algorithm 1's sync step: snapshot ``s = w`` and ``µ = ∇F(s)``."""
        snapshot = engine.weights.copy()
        mu = self.objective.full_gradient(snapshot, engine.X, engine.y)
        self.set_snapshot(mu, engine.kernel.matvec(engine.X, snapshot))
        fold_sync_step(event, nnz=engine.X.nnz, dim=snapshot.shape[0])

    def epoch_end(self, engine: EngineFacade, epoch: int, event) -> None:
        if self.skip_dense_term:
            engine.apply_dense_update(
                self.epoch_dense_delta(engine.inner_iterations), worker_id=-1
            )
            fold_sync_step(event, nnz=0, dim=engine.weights.shape[0])

    # ------------------------------------------------------------------ #
    def block_entry_weights(
        self,
        *,
        w: np.ndarray,
        rows: np.ndarray,
        y: np.ndarray,
        margins: np.ndarray,
        step_weights: np.ndarray,
        idx: np.ndarray,
        val: np.ndarray,
        lengths: np.ndarray,
    ) -> np.ndarray:
        if self._snapshot_margins is None:
            raise RuntimeError("set_snapshot must be called before the first block")
        coef_w = self.objective.batch_grad_coeffs(margins, y)
        coef_s = self.objective.batch_grad_coeffs(self._snapshot_margins[rows], y)
        return -self.step_size * np.repeat(step_weights * (coef_w - coef_s), lengths) * val


__all__ = ["SVRGRule"]
