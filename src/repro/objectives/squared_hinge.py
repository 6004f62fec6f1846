"""L2-regularised squared-hinge SVM objective.

Section 2.2 of the paper uses this objective to illustrate the gradient-norm
bound of Eq. 16:

    f_i(w) = (max(0, 1 - y_i <x_i, w>))^2 + (lambda / 2) ||w||^2,
    ||∇f_i(w)|| <= 2 (1 + ||x_i|| / sqrt(lambda)) ||x_i|| + sqrt(lambda).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.objectives.base import Objective
from repro.objectives.regularizers import L2Regularizer, Regularizer
from repro.sparse.csr import CSRMatrix


class SquaredHingeObjective(Objective):
    """Squared-hinge loss ``(⌊1 - y <x, w>⌋_+)²`` with an optional regulariser."""

    name = "squared_hinge"
    is_classification = True

    @classmethod
    def l2_regularized(cls, lam: float = 1e-4) -> "SquaredHingeObjective":
        """The paper's Eq.-16 configuration: squared hinge + ``(lam/2)||w||²``."""
        return cls(regularizer=L2Regularizer(lam))

    # -- scalar hot path ------------------------------------------------ #
    def sample_loss(self, w: np.ndarray, x_idx: np.ndarray, x_val: np.ndarray, y: float) -> float:
        slack = 1.0 - y * self.sample_margin(w, x_idx, x_val)
        # Not max(0.0, slack): a NaN slack stays NaN, as in _vector_loss.
        slack = 0.0 if slack <= 0.0 else slack
        return slack * slack

    def _loss_derivative(self, margin_or_pred: float, y: float) -> float:
        slack = 1.0 - y * margin_or_pred
        if slack <= 0.0:
            return 0.0
        return float(-2.0 * y * slack)

    # -- vectorised ------------------------------------------------------ #
    def _vector_loss(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        slack = np.maximum(0.0, 1.0 - y * margins)
        return slack * slack

    def _vector_loss_derivative(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        # The branch of _loss_derivative, not -2y * max(0, slack): an
        # infinite label would give inf * 0 = NaN where the hinge is inactive.
        slack = 1.0 - y * margins
        return np.where(slack <= 0.0, 0.0, -2.0 * y * slack)

    # -- smoothness ------------------------------------------------------ #
    def smoothness_coefficient(self) -> float:
        """The squared hinge is 2-smooth in the margin."""
        return 2.0

    # -- paper-specific gradient-norm bound (Eq. 16) --------------------- #
    def gradient_norm_bounds(self, X: CSRMatrix, radius: float = 1.0) -> np.ndarray:
        """Per-sample bound on ``||∇f_i(w)||`` from Eq. 16 of the paper.

        Only available when the regulariser is the L2 penalty the equation
        assumes; other regularisers fall back to the generic ``R * L_i``
        bound of the base class.
        """
        if isinstance(self.regularizer, L2Regularizer):
            lam = self.regularizer.eta
            norms = X.row_norms(squared=False)
            return 2.0 * (1.0 + norms / np.sqrt(lam)) * norms + np.sqrt(lam)
        return super().gradient_norm_bounds(X, radius=radius)


__all__ = ["SquaredHingeObjective"]
