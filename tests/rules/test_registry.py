"""Tests for the update-rule table: each built-in name builds its rule."""

import pytest

from repro.objectives.logistic import LogisticObjective
from repro.rules import (
    RULE_DESCRIPTIONS,
    available_rules,
    make_rule,
    rule_description,
)
from repro.rules.sgd import ISSGDRule, SGDRule
from repro.rules.svrg import SVRGRule


class TestRuleTable:
    @pytest.mark.parametrize(
        "name,cls,skips_dense",
        [
            ("sgd", SGDRule, None),
            ("is_sgd", ISSGDRule, None),
            ("svrg", SVRGRule, False),
            ("svrg_skip_dense", SVRGRule, True),
        ],
    )
    def test_builtin_name_builds_its_rule(self, name, cls, skips_dense):
        rule = make_rule(name, LogisticObjective(), 0.25)
        assert type(rule) is cls
        assert rule.step_size == pytest.approx(0.25)
        if skips_dense is not None:
            assert rule.skip_dense_term is skips_dense

    def test_descriptions_cover_exactly_the_rules(self):
        assert sorted(RULE_DESCRIPTIONS) == available_rules()
        for name in available_rules():
            assert rule_description(name) == RULE_DESCRIPTIONS[name]
            assert rule_description(name).strip()

    def test_unknown_rule_lists_the_builtins(self):
        with pytest.raises(ValueError, match="available: is_sgd, sgd, svrg, svrg_skip_dense"):
            make_rule("adamw", LogisticObjective(), 0.1)

    def test_description_of_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown update rule 'adamw'"):
            rule_description("adamw")

    def test_svrg_skip_dense_refuses_the_dense_term(self):
        with pytest.raises(ValueError, match="use rule='svrg'"):
            make_rule("svrg_skip_dense", LogisticObjective(), 0.1, skip_dense_term=False)
        # Asking for what the name already means is accepted.
        rule = make_rule("svrg_skip_dense", LogisticObjective(), 0.1, skip_dense_term=True)
        assert rule.skip_dense_term
