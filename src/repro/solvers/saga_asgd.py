"""Asynchronous SAGA — a paper-adjacent scenario unlocked by the runtime.

The paper lumps SAGA with SVRG as "SVRG-styled" variance reduction: both
pay a dense per-iteration term on sparse data (SAGA's running average
gradient ``ḡ`` plays µ's role), so both lose the absolute-time race to
IS-ASGD even while winning per epoch.  The original codebase only ran SAGA
serially; with the update math factored into the single
:class:`~repro.rules.saga.SAGARule` definition, the asynchronous variant
costs *one declaration* — this file — and immediately runs on every
execution tier (per-sample ground truth, batched macro-steps and the
multi-process cluster, where the coefficient table and ``ḡ`` live in
shared memory).

Asynchrony-specific semantics (lock-free ``ḡ`` updates, per-block state
freezing on the batched tiers) are documented on the rule.
"""

from __future__ import annotations

from repro.solvers.base import AsyncSolver


class SAGAASGDSolver(AsyncSolver):
    """Lock-free asynchronous SAGA with uniform sampling.

    Parameters are :class:`~repro.solvers.base.AsyncSolver`'s; the update
    rule is the registered ``saga`` definition (coefficient table + running
    average gradient shared across workers).
    """

    name = "saga_asgd"
    rule = "saga"


__all__ = ["SAGAASGDSolver"]
