"""Solver family.

Serial baselines (SGD, IS-SGD) and the asynchronous solvers (ASGD /
Hogwild and SVRG-ASGD) the paper compares against.  The paper's own
contribution, IS-ASGD, lives in :mod:`repro.core.is_asgd` and shares the same
:class:`~repro.solvers.base.AsyncSolver` base.  The asynchronous solvers
are thin declarations over :mod:`repro.runtime` — a registered update rule
plus sampler configuration, executable on any backend.
"""

from repro.solvers.base import AsyncSolver, BaseSolver, Problem
from repro.solvers.results import TrainResult
from repro.solvers.sgd import SGDSolver
from repro.solvers.is_sgd import ISSGDSolver
from repro.solvers.asgd import ASGDSolver
from repro.solvers.svrg_asgd import SVRGASGDSolver
from repro.solvers.registry import available_solvers, make_solver

__all__ = [
    "AsyncSolver",
    "BaseSolver",
    "Problem",
    "TrainResult",
    "SGDSolver",
    "ISSGDSolver",
    "ASGDSolver",
    "SVRGASGDSolver",
    "available_solvers",
    "make_solver",
]
