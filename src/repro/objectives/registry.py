"""Name-based objective factory.

The experiment configuration files refer to objectives by name
(``"logistic_l1"`` etc.); this registry turns those names into configured
:class:`~repro.objectives.base.Objective` instances.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.objectives.base import Objective
from repro.objectives.hinge import HingeObjective
from repro.objectives.least_squares import LeastSquaresObjective
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import (
    ElasticNetRegularizer,
    L1Regularizer,
    L2Regularizer,
)
from repro.objectives.squared_hinge import SquaredHingeObjective

_FACTORIES: Dict[str, Callable[[float], Objective]] = {
    # The paper's evaluation objective.
    "logistic_l1": lambda eta: LogisticObjective(regularizer=L1Regularizer(eta)),
    "logistic_l2": lambda eta: LogisticObjective(regularizer=L2Regularizer(eta)),
    "logistic": lambda eta: LogisticObjective(),
    # The paper's Eq. 16 example objective.
    "squared_hinge_l2": lambda eta: SquaredHingeObjective(regularizer=L2Regularizer(eta)),
    "squared_hinge": lambda eta: SquaredHingeObjective(),
    "hinge_l2": lambda eta: HingeObjective(regularizer=L2Regularizer(eta)),
    "hinge": lambda eta: HingeObjective(),
    "least_squares": lambda eta: LeastSquaresObjective(),
    "ridge": lambda eta: LeastSquaresObjective(regularizer=L2Regularizer(eta)),
    "logistic_elastic": lambda eta: LogisticObjective(
        regularizer=ElasticNetRegularizer(eta, eta)
    ),
}


def available_objectives() -> List[str]:
    """Names accepted by :func:`make_objective`, sorted alphabetically."""
    return sorted(_FACTORIES)


def make_objective(name: str, *, eta: float = 1e-4) -> Objective:
    """Instantiate an objective by name.

    Parameters
    ----------
    name:
        One of :func:`available_objectives`.
    eta:
        Regularisation strength passed to the regulariser (ignored by the
        unregularised variants).
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown objective {name!r}; available: {', '.join(available_objectives())}"
        ) from None
    return factory(eta)


__all__ = ["available_objectives", "make_objective"]
