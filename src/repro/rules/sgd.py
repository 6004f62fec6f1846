"""The SGD update rule (plain ASGD and importance-sampled IS-ASGD).

One definition serves every execution tier: the per-sample simulator calls
the derived scalar entry point, the batched simulator / thread pool /
cluster worker call :meth:`SGDRule.block_entry_weights` directly.  IS-SGD is
the *same* coefficient math — the importance re-weighting ``1/(n_a p_i)``
arrives through ``step_weights`` from the sampler layer — so it is
registered as an alias of this class rather than a second implementation.
"""

from __future__ import annotations

import numpy as np

from repro.objectives.regularizers import NoRegularizer
from repro.rules.base import UpdateRuleKernel


class SGDRule(UpdateRuleKernel):
    """``Δ = -λ · s_i · (phi'(⟨x_i, ŵ⟩) · x_i + ∇r(ŵ)|_supp)``.

    The loss derivative comes from the objective's batch API evaluated at
    the (stale) block-start margins; the separable regulariser is evaluated
    coordinate-wise on whatever ``(w, idx)`` view the engine provides (full
    model for batched tiers, the stale support view in the scalar path).
    """

    name = "sgd"
    records_per_iteration = 1
    grad_nnz_multiplier = 1
    counts_sample_draws = True
    dense_delta = None
    # The macro-step below is exactly the stateless frozen-margin shape the
    # fused kernel primitive implements, so batched engines may hand whole
    # blocks to run_frozen_block on backends that provide it.
    frozen_fusable = True

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
        coeffs = self.objective.batch_grad_coeffs(margins, y)
        entry = np.repeat(step_weights * coeffs, lengths) * val
        reg = self.objective.regularizer
        if idx.size and not isinstance(reg, NoRegularizer):
            entry = entry + np.repeat(step_weights, lengths) * reg.grad_coords(w, idx)
        return -self.step_size * entry


class ISSGDRule(SGDRule):
    """Importance-sampled SGD: identical math, importance-weighted steps.

    Listed separately so the parity suite and ``repro list`` can name the
    paper's headline configuration; the coefficient/step logic is
    inherited *unchanged* from :class:`SGDRule` — the re-weighting lives in
    the sampler's ``step_weights``, not in the rule.
    """

    name = "is_sgd"


__all__ = ["SGDRule", "ISSGDRule"]
