"""Asynchronous SVRG (Algorithm 1 of the paper, the "SVRG-ASGD" baseline).

Workers run lock-free over the shared model; once per epoch a snapshot
``s = w`` and its full gradient ``µ = ∇F(s)`` are computed, and every inner
iteration applies the variance-reduced gradient
``v_t = ∇f_i(ŵ_t) - ∇f_i(s) + µ``.  The implementation follows the
literature version faithfully — the dense ``µ`` is added at *every*
iteration (no skip-µ approximation) — because the paper explicitly
evaluates that version; the approximation is available as an ablation flag.

The per-iteration dense cost is what makes this solver lose the absolute
convergence race on sparse data even though it wins per epoch.

The whole algorithm — the inner update *and* the per-epoch sync step — is
the registered ``svrg`` / ``svrg_skip_dense`` rule
(:mod:`repro.rules.svrg`); this solver only chooses between the two and
hands execution to the runtime, so every backend runs the identical
definition.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.solvers.base import AsyncSolver


class SVRGASGDSolver(AsyncSolver):
    """Lock-free asynchronous SVRG (generic SVRG-styled ASGD of Algorithm 1).

    ``skip_dense_term`` selects the paper's skip-µ ablation (registered as
    the ``svrg_skip_dense`` rule); the other parameters are
    :class:`~repro.solvers.base.AsyncSolver`'s.
    """

    name = "svrg_asgd"

    def __init__(self, *, skip_dense_term: bool = False, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.skip_dense_term = bool(skip_dense_term)

    @property
    def rule(self) -> str:
        """Registered update rule this solver declares."""
        return "svrg_skip_dense" if self.skip_dense_term else "svrg"

    def _info(self) -> Dict[str, Any]:
        return {"num_workers": self.num_workers, "skip_dense_term": self.skip_dense_term}


__all__ = ["SVRGASGDSolver"]
