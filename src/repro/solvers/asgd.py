"""Asynchronous SGD (Hogwild-style), the paper's acceleration target.

This solver is a thin declaration: uniform sampling over per-worker shards,
the registered ``sgd`` update rule (:mod:`repro.rules.sgd`) and the
staleness default, all inherited from
:class:`~repro.solvers.base.AsyncSolver`.  The execution runtime
(:mod:`repro.runtime`) runs it on whichever backend ``async_mode`` selects:
``per_sample`` (ground-truth simulator), ``batched`` (macro-step fast path)
or ``process`` (multi-process sharded parameter server with measured
wall-clock).
"""

from __future__ import annotations

from repro.solvers.base import AsyncSolver


class ASGDSolver(AsyncSolver):
    """Hogwild-style asynchronous SGD with uniform sampling.

    Parameters are :class:`~repro.solvers.base.AsyncSolver`'s.
    """

    name = "asgd"
    rule = "sgd"


__all__ = ["ASGDSolver"]
