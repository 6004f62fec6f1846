"""The single-source update-rule contract of the execution runtime.

Every asynchronous solver in this repository is, at its core, *one* piece of
coefficient/step math — "given the (possibly stale) margins of a block of
samples, what additive deltas land on their supports, and what dense term
rides along?".  Historically that math was re-implemented once per execution
tier (scalar for the per-sample simulator, batched for the macro-step
engine, a third copy inside the cluster worker).  A :class:`UpdateRuleKernel`
defines it **once**, as the batched block computation, and derives the other
entry points from it:

* :meth:`block_entry_weights` — the one implementation.  Computes the
  per-entry deltas of a whole gathered block from its block-start margins.
  The batched simulator and the cluster worker both call this directly.
* :meth:`compute_update` — the scalar entry point used by the per-sample
  ground-truth simulator.  It is a block of size one: the base class wraps the scalar arguments into
  singleton arrays and calls :meth:`block_entry_weights`, so a rule cannot
  drift between tiers.
* epoch hooks (:meth:`epoch_begin` / :meth:`epoch_end`) — per-epoch sync
  work (SVRG's snapshot + full gradient, the skip-µ ablation's dense
  term), expressed against the small :class:`EngineFacade` surface that the
  per-sample and batched engines expose.  The cluster driver exposes no
  facade and calls no hook: it runs SVRG's sync step itself, between its
  epoch barriers, and publishes µ and the snapshot margins to the workers
  through the shared-memory arena (each worker installs them with
  ``set_snapshot``).

Rules carry their trace metadata (``records_per_iteration``,
``grad_nnz_multiplier``, ``counts_sample_draws``) so the engines can fold
operation counters without per-solver special cases — see
:mod:`repro.runtime.trace_fold`.

Layout convention
-----------------
``block_entry_weights`` receives ``idx`` in the layout of ``w``: global
coordinates for the batched and cluster tiers, or ``arange(nnz)`` paired
with a support-sized ``w`` view in the scalar path.  Separable-regulariser
lookups use ``(w, idx)``.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol

import numpy as np

from repro.objectives.base import Objective


class EngineFacade(Protocol):
    """What an execution engine exposes to rule epoch hooks.

    The per-sample and batched engines satisfy this protocol and call the
    hooks, so a rule's sync step runs identically on both.  The cluster
    driver does not: it computes SVRG's sync step itself and shares the
    result through its arena (see :mod:`repro.cluster.driver`).
    """

    X: Any                     # CSRMatrix of the problem
    y: np.ndarray
    kernel: Any                # KernelBackend for batched arithmetic

    @property
    def weights(self) -> np.ndarray:
        """The live model vector (global layout)."""
        ...

    @property
    def inner_iterations(self) -> int:
        """Inner iterations every epoch performs (all workers combined)."""
        ...

    def apply_dense_update(self, delta: np.ndarray, *, worker_id: int = -1) -> None:
        """Apply ``w += delta`` as one logged dense update record."""
        ...


class UpdateRuleKernel:
    """Base class for single-source update rules.

    Parameters
    ----------
    objective:
        The loss whose derivative drives the update.
    step_size:
        Base step size λ (already folded into the returned entry weights).
    """

    #: Registry name (subclasses override).
    name: str = "rule"
    #: Update records the per-sample engine writes per iteration (1 for
    #: purely sparse rules, 2 when a dense term precedes the sparse write).
    records_per_iteration: int = 1
    #: Trace ``grad_nnz`` per iteration as a multiple of ``nnz(x_i)``.
    grad_nnz_multiplier: int = 1
    #: Whether each inner iteration counts as a weighted sample draw in the
    #: trace (True for SGD-style outer loops, False for VR inner loops).
    counts_sample_draws: bool = True
    #: The dense vector the rule applies once per iteration (SVRG's
    #: ``-λµ``), or ``None`` for purely sparse rules.
    #: Engines read it right after computing a block/iteration.
    dense_delta: Optional[np.ndarray] = None
    #: Whether the rule's whole frozen-margin macro-step is exactly
    #: ``scales[t] * (phi'(m_t) * x_t + ∇r(ŵ)|_supp)`` with
    #: ``scales = -step_size * step_weights`` — i.e. stateless SGD-style
    #: math a kernel's fused ``run_frozen_block`` primitive can execute in
    #: one native call.  Rules with cross-iteration state or extra terms
    #: must leave this False so engines keep the composable
    #: ``segment_margins`` → :meth:`block_entry_weights` → ``scatter_add``
    #: path.
    frozen_fusable: bool = False

    def __init__(self, objective: Objective, step_size: float) -> None:
        self.objective = objective
        self.step_size = float(step_size)

    # ------------------------------------------------------------------ #
    # The one implementation
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
        """Per-entry additive deltas aligned with the gathered ``(idx, val)``.

        ``margins`` are the block-start margins of ``rows``; the returned
        array has one weight per gathered entry, already scaled by the step
        size and the importance re-weighting, ready for one scatter-add.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Derived entry points
    # ------------------------------------------------------------------ #
    def compute_update(
        self,
        stale_coords: np.ndarray,
        x_idx: np.ndarray,
        x_val: np.ndarray,
        y: float,
        step_weight: float,
        row: int = 0,
    ) -> np.ndarray:
        """Scalar entry point: one iteration == a block of size one.

        ``stale_coords`` is the (stale) view of the model on the sample's
        support; the separable regulariser only needs those coordinate
        values, so the support view doubles as the ``w`` argument of the
        block call (with ``idx = arange(nnz)``), exactly as the per-sample
        engine has always evaluated it.  Returns the delta values on the
        support; the dense vector — when the rule has one — is read from
        :attr:`dense_delta` by the engine.
        """
        k = int(x_idx.size)
        margin = float(np.dot(x_val, stale_coords)) if k else 0.0
        proxy = np.ascontiguousarray(stale_coords, dtype=np.float64)
        return self.block_entry_weights(
            w=proxy,
            rows=np.array([row], dtype=np.int64),
            y=np.array([y], dtype=np.float64),
            margins=np.array([margin], dtype=np.float64),
            step_weights=np.array([step_weight], dtype=np.float64),
            idx=np.arange(k, dtype=np.int64),
            val=x_val,
            lengths=np.array([k], dtype=np.int64),
        )

    # ------------------------------------------------------------------ #
    # Epoch hooks (no-ops by default)
    # ------------------------------------------------------------------ #
    def epoch_begin(self, engine: EngineFacade, epoch: int, event) -> None:
        """Per-epoch sync work before the inner loop (fold costs into ``event``)."""

    def epoch_end(self, engine: EngineFacade, epoch: int, event) -> None:
        """Per-epoch work after the inner loop (fold costs into ``event``)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(step_size={self.step_size})"


__all__ = ["UpdateRuleKernel", "EngineFacade"]
