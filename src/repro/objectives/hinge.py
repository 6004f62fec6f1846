"""Standard (non-squared) hinge-loss SVM objective.

Included as an additional baseline objective; note the hinge loss is not
smooth, so its "Lipschitz constants" are gradient-norm bounds rather than
smoothness constants — still a perfectly valid importance measure (the
Needell et al. analysis the paper builds on covers exactly this case).
"""

from __future__ import annotations

import numpy as np

from repro.objectives.base import Objective
from repro.sparse.csr import CSRMatrix


class HingeObjective(Objective):
    """Hinge loss ``max(0, 1 - y <x, w>)`` with an optional regulariser."""

    name = "hinge"
    is_classification = True

    # -- scalar hot path ------------------------------------------------ #
    def sample_loss(self, w: np.ndarray, x_idx: np.ndarray, x_val: np.ndarray, y: float) -> float:
        slack = 1.0 - y * self.sample_margin(w, x_idx, x_val)
        # Not max(0.0, slack): a NaN slack stays NaN, as in _vector_loss.
        return 0.0 if slack <= 0.0 else slack

    def _loss_derivative(self, margin_or_pred: float, y: float) -> float:
        if 1.0 - y * margin_or_pred > 0.0:
            return float(-y)
        return 0.0

    # -- vectorised ------------------------------------------------------ #
    def _vector_loss(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 1.0 - y * margins)

    def _vector_loss_derivative(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        active = (1.0 - y * margins) > 0.0
        return np.where(active, -y, 0.0)

    # -- smoothness ------------------------------------------------------ #
    def smoothness_coefficient(self) -> float:
        """The hinge is non-smooth; 1.0 is the subgradient-norm coefficient.

        ``||∂f_i(w)|| <= ||x_i||`` for the hinge, so using coefficient 1 with
        the *non-squared* row norm would be tight; we keep the base-class
        convention (coefficient times squared norm) as a conservative proxy
        and override :meth:`lipschitz_constants` to use the tight bound.
        """
        return 1.0

    def lipschitz_constants(self, X: CSRMatrix, y=None) -> np.ndarray:
        """Subgradient-norm bounds ``||x_i|| + reg`` (tight for the hinge)."""
        norms = X.row_norms(squared=False)
        reg = np.array([self.regularizer.lipschitz_bound(float(n)) for n in norms])
        return norms + reg


__all__ = ["HingeObjective"]
