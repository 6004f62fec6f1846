"""The asynchronous SAGA update rule — the runtime layer's new scenario.

Serial SAGA (see :mod:`repro.solvers.saga`) keeps the most recent loss
coefficient of every sample and applies

    w ← w - λ [ (phi'_i(w) - c_i) x_i + ḡ ]

where ``c_i`` is the stored coefficient and ``ḡ`` the running average
gradient.  Because the stored gradient of a linear model is a scalar
multiple of ``x_i``, the asynchronous version needs only two shared pieces
of state — the coefficient table (rows are owned by exactly one worker, the
data shards are disjoint) and the dense ``ḡ`` (updated lock-free, exactly
like the model itself).  That makes SAGA expressible as an
:class:`~repro.rules.base.UpdateRuleKernel` and therefore runnable on every
execution tier through the one definition below.

Batching semantics: inside one macro-step the margins (hence the refreshed
coefficients) are evaluated at the block-start model and ``ḡ`` is frozen at
its block-start value — the same perturbed-iterate approximation the
batched engine already applies to the weights.  A sample drawn twice in one
block therefore contributes its coefficient refresh once (the second draw
sees the same margin, so its table delta is zero).  Consequently the
conflict accounting is *statistically* — not bitwise — equivalent between
the per-sample and batched tiers (``trace_exact_batched = False``); the
operation counters (iterations, sparse/dense traffic) remain exact.

The separable regulariser follows the repository's index-compressed
convention (evaluated on the sample support, as in the SGD rule); the
dense term carries only ``-λ ḡ``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.objectives.regularizers import NoRegularizer
from repro.rules.base import EngineFacade, UpdateRuleKernel
from repro.runtime.trace_fold import fold_sync_step


class SAGARule(UpdateRuleKernel):
    """Asynchronous SAGA from block-start margins + shared table state."""

    name = "saga"
    records_per_iteration = 2   # dense ḡ write + sparse support write
    grad_nnz_multiplier = 2     # margin evaluation + ḡ support refresh
    counts_sample_draws = False
    trace_exact_batched = False

    def __init__(self, objective, step_size: float) -> None:
        super().__init__(objective, step_size)
        self.dense_delta: Optional[np.ndarray] = None
        self._coefs: Optional[np.ndarray] = None
        self._avg: Optional[np.ndarray] = None
        self._n: int = 0

    # ------------------------------------------------------------------ #
    # State management
    # ------------------------------------------------------------------ #
    @property
    def initialized(self) -> bool:
        """Whether the coefficient table has been built/attached."""
        return self._coefs is not None

    def attach_state(self, coefs: np.ndarray, avg: np.ndarray, n_samples: int) -> None:
        """Adopt externally owned table state (the cluster tier's shm views).

        ``avg`` lives in the same global coordinate order as the model the
        rule updates, on every tier.
        """
        self._coefs = coefs
        self._avg = avg
        self._n = int(n_samples)
        self.dense_delta = -self.step_size * np.asarray(avg, dtype=np.float64)

    def initial_state(self, X, y, w0: np.ndarray, kernel):
        """``(coefs, avg)`` of the table at the starting iterate ``w0``.

        One batched pass through the kernel backend — shared by the
        simulated tiers (:meth:`epoch_begin`) and the cluster driver, which
        computes the same state into its shared-memory blocks.
        """
        coefs = kernel.grad_coeffs(self.objective, X, y, w0)
        avg = kernel.accumulate_rows(
            X, np.arange(X.n_rows), coefs / X.n_rows, np.zeros(w0.shape[0], dtype=np.float64)
        )
        return coefs, avg

    # ------------------------------------------------------------------ #
    def epoch_begin(self, engine: EngineFacade, epoch: int, event) -> None:
        """Build the table at the starting iterate (first epoch only)."""
        if self.initialized:
            return
        w0 = engine.weights.copy()
        coefs, avg = self.initial_state(engine.X, engine.y, w0, engine.kernel)
        self.attach_state(coefs, avg, engine.X.n_rows)
        fold_sync_step(event, nnz=engine.X.nnz, dim=w0.shape[0])

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
        model_idx: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if self._coefs is None or self._avg is None:
            raise RuntimeError("SAGA table not initialised; epoch_begin/attach_state first")
        if model_idx is None:
            model_idx = idx
        new = self.objective.batch_grad_coeffs(margins, y)
        old = self._coefs[rows]
        # A row drawn several times in one block refreshes its coefficient
        # once: every draw sees the same block-start margin, so only the
        # first occurrence carries a non-zero table delta.
        first = np.zeros(rows.size, dtype=bool)
        first[np.unique(rows, return_index=True)[1]] = True
        delta_coef = np.where(first, new - old, 0.0)

        # Freeze the dense term at the block-start average — every
        # iteration of this block observes ḡ as it was when the block began
        # (the scalar path is a block of one, i.e. the exact SAGA order:
        # dense with the pre-update average, then the state refresh).
        self.dense_delta = -self.step_size * np.asarray(self._avg, dtype=np.float64)

        # Fold the block into the shared state: table rows (disjoint across
        # workers) and the running average on the touched supports.
        self._coefs[rows] = new
        contrib = np.repeat(delta_coef / max(self._n, 1), lengths) * val
        if model_idx.size:
            np.add.at(self._avg, model_idx, contrib)

        entry = np.repeat(step_weights * delta_coef, lengths) * val
        reg = self.objective.regularizer
        if idx.size and not isinstance(reg, NoRegularizer):
            entry = entry + np.repeat(step_weights, lengths) * reg.grad_coords(w, idx)
        return -self.step_size * entry


__all__ = ["SAGARule"]
