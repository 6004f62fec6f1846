"""Abstract objective interface.

Every objective is a finite sum ``F(w) = (1/n) Σ f_i(w)`` over the rows of a
:class:`~repro.sparse.csr.CSRMatrix`.  The key design decision — dictated by
the paper — is that per-sample gradients are *index-compressed*: a gradient
is returned as a :class:`SparseGradient` whose support equals the support of
``x_i`` so that a model update touches only ``nnz(x_i)`` coordinates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.objectives.regularizers import NoRegularizer, Regularizer
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import sparse_norm_sq


@dataclass
class SparseGradient:
    """An index-compressed gradient ``(indices, values)``.

    Attributes
    ----------
    indices:
        Coordinates of the non-zero gradient entries (integer array;
        ``int32`` when sliced from a :class:`CSRMatrix` row).
    values:
        Gradient values at those coordinates (``float64``).
    """

    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        """Number of touched coordinates."""
        return int(self.indices.size)

    def norm_sq(self) -> float:
        """Squared Euclidean norm of the gradient."""
        return sparse_norm_sq(self.values)

    def norm(self) -> float:
        """Euclidean norm of the gradient."""
        return float(np.sqrt(self.norm_sq()))


class Objective(ABC):
    """Finite-sum objective over a sparse design matrix.

    Subclasses implement the scalar loss ``phi(margin-or-residual)`` pieces;
    the base class provides the shared full-objective, error-rate and
    Lipschitz plumbing.

    Parameters
    ----------
    regularizer:
        Separable regulariser ``r(w)``; defaults to no regularisation.
    """

    #: Human-readable identifier used by the registry and reports.
    name: str = "objective"
    #: Whether labels are class labels in {-1, +1} (True) or real targets.
    is_classification: bool = True

    def __init__(self, regularizer: Optional[Regularizer] = None) -> None:
        self.regularizer = regularizer if regularizer is not None else NoRegularizer()

    # ------------------------------------------------------------------ #
    # Per-sample quantities (the hot path)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def sample_loss(self, w: np.ndarray, x_idx: np.ndarray, x_val: np.ndarray, y: float) -> float:
        """Unregularised loss ``phi_i(w)`` of one sample."""

    @abstractmethod
    def _loss_derivative(self, margin_or_pred: float, y: float) -> float:
        """Derivative of the scalar loss with respect to the linear activation ``<x_i, w>``."""

    def sample_margin(self, w: np.ndarray, x_idx: np.ndarray, x_val: np.ndarray) -> float:
        """Linear activation ``<x_i, w>`` of one sample."""
        if x_idx.size == 0:
            return 0.0
        return float(np.dot(x_val, w[x_idx]))

    def sample_grad(
        self, w: np.ndarray, x_idx: np.ndarray, x_val: np.ndarray, y: float
    ) -> SparseGradient:
        """Index-compressed gradient ``∇f_i(w)`` (loss + regulariser on the support)."""
        activation = self.sample_margin(w, x_idx, x_val)
        coef = self._loss_derivative(activation, y)
        values = coef * x_val
        if not isinstance(self.regularizer, NoRegularizer) and x_idx.size:
            values = values + self.regularizer.grad_coords(w, x_idx)
        return SparseGradient(indices=x_idx, values=values)

    def sample_grad_dense(
        self, w: np.ndarray, x_idx: np.ndarray, x_val: np.ndarray, y: float
    ) -> np.ndarray:
        """Dense per-sample gradient including the *full* regulariser gradient.

        This is the mathematically exact ``∇f_i(w)`` used by the theory module
        and by SVRG's full-gradient computation; the index-compressed variant
        used in the solvers' hot loop restricts the regulariser to the sample
        support (see module docstring of :mod:`repro.objectives.regularizers`).
        """
        activation = self.sample_margin(w, x_idx, x_val)
        coef = self._loss_derivative(activation, y)
        grad = np.zeros(w.shape[0], dtype=np.float64)
        if x_idx.size:
            np.add.at(grad, x_idx, coef * x_val)
        if not isinstance(self.regularizer, NoRegularizer):
            grad += self.regularizer.grad_dense(w)
        return grad

    # ------------------------------------------------------------------ #
    # Batch API (the contract the kernel backends build on; implemented
    # once here from the vectorised loss hooks, so every objective gets the
    # batched paths for free — see the ``repro.kernels`` module docstring)
    # ------------------------------------------------------------------ #
    def batch_margins(
        self,
        w: np.ndarray,
        X: CSRMatrix,
        rows: Optional[np.ndarray] = None,
        kernel=None,
    ) -> np.ndarray:
        """Margins ``<x_i, w>`` for ``rows`` (all rows when ``None``).

        Dispatches through the selected kernel backend (``kernel`` may be a
        backend instance, a registry name, or ``None`` for the default).
        """
        from repro.kernels.registry import resolve_backend

        return resolve_backend(kernel).margins(X, w, rows)

    def batch_loss(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise unregularised losses from precomputed margins.

        Must agree with the scalar :meth:`sample_loss` evaluated per row;
        the parity suite enforces this for every registered objective.
        """
        return np.asarray(
            self._vector_loss(
                np.ascontiguousarray(margins, dtype=np.float64),
                np.ascontiguousarray(y, dtype=np.float64),
            ),
            dtype=np.float64,
        )

    def batch_grad_coeffs(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise loss derivatives w.r.t. the margin from precomputed margins.

        Must agree with the scalar :meth:`_loss_derivative` per row, so the
        per-sample gradient is always ``batch_grad_coeffs(m, y)[i] * x_i``
        plus the regulariser restricted to the support.
        """
        return np.asarray(
            self._vector_loss_derivative(
                np.ascontiguousarray(margins, dtype=np.float64),
                np.ascontiguousarray(y, dtype=np.float64),
            ),
            dtype=np.float64,
        )

    # ------------------------------------------------------------------ #
    # Full-dataset quantities
    # ------------------------------------------------------------------ #
    def full_loss(self, w: np.ndarray, X: CSRMatrix, y: np.ndarray) -> float:
        """Full objective ``F(w) = (1/n) Σ phi_i(w) + r(w)``."""
        if X.n_rows == 0:
            return self.regularizer.value(w)
        margins = X.dot(w)
        losses = self._vector_loss(margins, y)
        return float(losses.mean()) + self.regularizer.value(w)

    def full_gradient(self, w: np.ndarray, X: CSRMatrix, y: np.ndarray) -> np.ndarray:
        """Dense full gradient ``∇F(w)`` (used by SVRG and the theory module)."""
        margins = X.dot(w)
        coefs = self._vector_loss_derivative(margins, y)
        grad = X.transpose_dot(coefs) / max(X.n_rows, 1)
        grad += self.regularizer.grad_dense(w)
        return grad

    def rmse(self, w: np.ndarray, X: CSRMatrix, y: np.ndarray) -> float:
        """The paper's "RMSE" metric: the square root of the mean objective value.

        Section 4 defines RMSE as the rooted mean squared error *with the
        objective value as the error*, i.e. ``sqrt(F(w))`` where ``F`` is the
        mean per-sample loss.  Negative means (impossible for the losses
        implemented here) are clipped to zero defensively.
        """
        return float(np.sqrt(max(self.full_loss(w, X, y), 0.0)))

    def error_rate(self, w: np.ndarray, X: CSRMatrix, y: np.ndarray) -> float:
        """Misclassification rate (classification) or normalised MSE (regression)."""
        return self.error_rate_from_margins(X.dot(w), y)

    def error_rate_from_margins(self, margins: np.ndarray, y: np.ndarray) -> float:
        """:meth:`error_rate` from precomputed margins (one matvec shared with the loss)."""
        preds = self.predict_from_margins(margins)
        if self.is_classification:
            return float(np.mean(preds != np.sign(y)))
        denom = float(np.mean(y**2)) or 1.0
        return float(np.mean((preds - y) ** 2)) / denom

    def predict(self, w: np.ndarray, X: CSRMatrix) -> np.ndarray:
        """Class predictions in {-1, +1} (classification) or raw scores (regression)."""
        return self.predict_from_margins(X.dot(w))

    def predict_from_margins(self, margins: np.ndarray) -> np.ndarray:
        """:meth:`predict` from precomputed margins."""
        if self.is_classification:
            preds = np.sign(margins)
            preds[preds == 0] = 1.0
            return preds
        return np.asarray(margins, dtype=np.float64)

    #: Whether :meth:`proba_from_margins` is meaningful for this objective
    #: (only losses with a probabilistic interpretation override it).
    has_probabilities: bool = False

    def proba_from_margins(self, margins: np.ndarray) -> np.ndarray:
        """Positive-class probabilities from precomputed margins.

        Only objectives whose loss has a probabilistic interpretation
        (:attr:`has_probabilities`) implement this; the serving layer uses
        it for ``predict_proba`` and reports a helpful error otherwise.
        """
        raise ValueError(
            f"objective {self.name!r} does not define class probabilities; "
            "use predict/decision_function instead"
        )

    # ------------------------------------------------------------------ #
    # Vectorised internals (subclasses implement the scalar math too so the
    # per-sample hot path avoids array temporaries)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _vector_loss(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised unregularised loss for all samples."""

    @abstractmethod
    def _vector_loss_derivative(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised derivative of the loss w.r.t. the linear activation."""

    # ------------------------------------------------------------------ #
    # Lipschitz constants (drive the importance-sampling distribution)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def smoothness_coefficient(self) -> float:
        """Upper bound on the second derivative of the scalar loss.

        For a loss ``phi(t, y)`` with ``|phi''| <= beta`` the gradient of
        ``phi(<x_i, w>, y_i)`` is ``beta * ||x_i||²``-Lipschitz in ``w``.
        """

    def lipschitz_constants(self, X: CSRMatrix, y: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-sample gradient Lipschitz constants ``L_i``.

        ``L_i = beta * ||x_i||² + regulariser`` where ``beta`` is the loss
        smoothness coefficient.  These are the quantities Eq. 12 turns into
        the importance-sampling distribution.
        """
        norms_sq = X.row_norms(squared=True)
        beta = self.smoothness_coefficient()
        reg = np.array([self.regularizer.lipschitz_bound(float(np.sqrt(s))) for s in norms_sq])
        return beta * norms_sq + reg

    def gradient_norm_bounds(self, X: CSRMatrix, radius: float = 1.0) -> np.ndarray:
        """Upper bounds on ``||∇f_i(w)||`` for ``||w|| <= radius`` (sup-norm proxy ``R * L_i``)."""
        return radius * self.lipschitz_constants(X)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(regularizer={self.regularizer!r})"


__all__ = ["Objective", "SparseGradient"]
