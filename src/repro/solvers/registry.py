"""Name-based solver factory used by the experiment harness."""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.solvers.base import BaseSolver


def _make_sgd(**kwargs) -> BaseSolver:
    from repro.solvers.sgd import SGDSolver

    kwargs.pop("num_workers", None)
    return SGDSolver(**kwargs)


def _make_is_sgd(**kwargs) -> BaseSolver:
    from repro.solvers.is_sgd import ISSGDSolver

    kwargs.pop("num_workers", None)
    return ISSGDSolver(**kwargs)


def _make_asgd(**kwargs) -> BaseSolver:
    from repro.solvers.asgd import ASGDSolver

    return ASGDSolver(**kwargs)


def _make_svrg_asgd(**kwargs) -> BaseSolver:
    from repro.solvers.svrg_asgd import SVRGASGDSolver

    return SVRGASGDSolver(**kwargs)


def _make_is_asgd(**kwargs) -> BaseSolver:
    from repro.core.is_asgd import ISASGDSolver

    cost_model = kwargs.pop("cost_model", None)
    return ISASGDSolver(cost_model=cost_model, **kwargs)


_FACTORIES: Dict[str, Callable[..., BaseSolver]] = {
    "sgd": _make_sgd,
    "is_sgd": _make_is_sgd,
    "asgd": _make_asgd,
    "svrg_asgd": _make_svrg_asgd,
    "is_asgd": _make_is_asgd,
}

#: Solvers that execute through the runtime layer (accept ``async_mode``).
#: The experiment store reads it to decide which runs carry an execution
#: mode in their identity.
ASYNC_SOLVER_NAMES = ("asgd", "is_asgd", "svrg_asgd")


def available_solvers() -> List[str]:
    """Names accepted by :func:`make_solver`."""
    return sorted(_FACTORIES)


def make_solver(name: str, **kwargs: Any) -> BaseSolver:
    """Instantiate a solver by name.

    Keyword arguments are forwarded to the solver constructor; serial
    solvers silently ignore ``num_workers`` so experiment configurations can
    pass a uniform parameter set to every algorithm in a comparison.  Every
    solver accepts ``kernel`` (a compute-backend instance or registry name,
    see :mod:`repro.kernels`) to select how its arithmetic is executed.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown solver {name!r}; available: {', '.join(available_solvers())}"
        ) from None
    return factory(**kwargs)


#: Where each built-in solver class lives (``docs/reference.md`` generation).
_CLASS_PATHS: Dict[str, str] = {
    "sgd": "repro.solvers.sgd:SGDSolver",
    "is_sgd": "repro.solvers.is_sgd:ISSGDSolver",
    "asgd": "repro.solvers.asgd:ASGDSolver",
    "svrg_asgd": "repro.solvers.svrg_asgd:SVRGASGDSolver",
    "is_asgd": "repro.core.is_asgd:ISASGDSolver",
}


def solver_class(name: str) -> type:
    """The concrete solver class behind a registry name.

    Used by the reference-page generator to introspect docstrings and
    constructor signatures without instantiating anything.
    """
    try:
        path = _CLASS_PATHS[name]
    except KeyError:
        raise ValueError(
            f"unknown solver {name!r}; available: {', '.join(available_solvers())}"
        ) from None
    import importlib

    module_name, _, class_name = path.partition(":")
    return getattr(importlib.import_module(module_name), class_name)


__all__ = [
    "ASYNC_SOLVER_NAMES",
    "available_solvers",
    "make_solver",
    "solver_class",
]
