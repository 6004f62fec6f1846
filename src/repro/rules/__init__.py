"""Single-source update rules + their registry.

Every update rule in the repository — the coefficient/step math that turns
a block of (possibly stale) margins into model deltas — lives in exactly
one module under this package and is instantiated by name through
:func:`make_rule`.  The execution backends (:mod:`repro.runtime`) are rule
consumers only: adding a solver means writing one rule module and adding
it to the table here, after which every tier runs it.

The rules:

* ``sgd`` — plain stochastic gradient (ASGD's update).
* ``is_sgd`` — importance-sampled SGD; same coefficient math as ``sgd``
  (the ``1/(n_a p_i)`` re-weighting arrives via the sampler's step
  weights), listed separately so IS-ASGD's rule has its own name.
* ``svrg`` — asynchronous SVRG (Algorithm 1), dense µ every iteration.
* ``svrg_skip_dense`` — the paper's skip-µ ablation (dense term folded in
  once per epoch).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.rules.base import EngineFacade, UpdateRuleKernel
from repro.rules.sgd import ISSGDRule, SGDRule
from repro.rules.svrg import SVRGRule


def _make_svrg_skip_dense(objective, step_size, **kwargs):
    if kwargs.pop("skip_dense_term", True) is False:
        raise ValueError("svrg_skip_dense always skips the dense term; use rule='svrg'")
    return SVRGRule(objective, step_size, skip_dense_term=True, **kwargs)


_FACTORIES: Dict[str, Callable[..., UpdateRuleKernel]] = {
    "sgd": SGDRule,
    "is_sgd": ISSGDRule,
    "svrg": SVRGRule,
    "svrg_skip_dense": _make_svrg_skip_dense,
}

#: One-line description per rule (surfaced by ``python -m repro list`` and
#: the generated ``docs/reference.md``).
RULE_DESCRIPTIONS: Dict[str, str] = {
    "sgd": "plain stochastic gradient on the sample support (ASGD)",
    "is_sgd": "SGD with importance-weighted steps 1/(n_a p_i) (IS-ASGD)",
    "svrg": "variance-reduced update with the dense µ term every iteration",
    "svrg_skip_dense": "SVRG with the dense µ term accumulated once per epoch",
}


def available_rules() -> List[str]:
    """Rule names accepted by :func:`make_rule`, sorted."""
    return sorted(_FACTORIES)


def rule_description(name: str) -> str:
    """One-line description of a rule."""
    _require(name)
    return RULE_DESCRIPTIONS[name]


def make_rule(name: str, objective, step_size: float, **kwargs) -> UpdateRuleKernel:
    """Instantiate an update rule by name.

    ``kwargs`` are rule-specific (``skip_dense_term`` for ``svrg``); unknown
    names raise with the full list of valid rules.
    """
    return _require(name)(objective, step_size, **kwargs)


def _require(name: str) -> Callable[..., UpdateRuleKernel]:
    try:
        return _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown update rule {name!r}; available: {', '.join(available_rules())}"
        ) from None


__all__ = [
    "EngineFacade",
    "UpdateRuleKernel",
    "SGDRule",
    "ISSGDRule",
    "SVRGRule",
    "RULE_DESCRIPTIONS",
    "available_rules",
    "rule_description",
    "make_rule",
]
