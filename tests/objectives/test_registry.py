"""Tests for the objective registry."""

import pytest

from repro.objectives.base import Objective
from repro.objectives.hinge import HingeObjective
from repro.objectives.least_squares import LeastSquaresObjective
from repro.objectives.logistic import LogisticObjective
from repro.objectives.registry import available_objectives, make_objective
from repro.objectives.regularizers import (
    ElasticNetRegularizer,
    L1Regularizer,
    L2Regularizer,
    NoRegularizer,
)
from repro.objectives.squared_hinge import SquaredHingeObjective

#: The ten built-in entries: name -> (loss class, regulariser class).
BUILTIN_OBJECTIVES = {
    "hinge": (HingeObjective, NoRegularizer),
    "hinge_l2": (HingeObjective, L2Regularizer),
    "least_squares": (LeastSquaresObjective, NoRegularizer),
    "logistic": (LogisticObjective, NoRegularizer),
    "logistic_elastic": (LogisticObjective, ElasticNetRegularizer),
    "logistic_l1": (LogisticObjective, L1Regularizer),
    "logistic_l2": (LogisticObjective, L2Regularizer),
    "ridge": (LeastSquaresObjective, L2Regularizer),
    "squared_hinge": (SquaredHingeObjective, NoRegularizer),
    "squared_hinge_l2": (SquaredHingeObjective, L2Regularizer),
}


class TestRegistry:
    def test_available_contains_paper_objectives(self):
        names = available_objectives()
        assert "logistic_l1" in names
        assert "squared_hinge_l2" in names

    def test_make_logistic_l1(self):
        obj = make_objective("logistic_l1", eta=0.01)
        assert isinstance(obj, LogisticObjective)
        assert isinstance(obj.regularizer, L1Regularizer)
        assert obj.regularizer.eta == pytest.approx(0.01)

    def test_make_ridge(self):
        obj = make_objective("ridge", eta=0.5)
        assert isinstance(obj.regularizer, L2Regularizer)

    def test_every_registered_name_constructs(self):
        for name in available_objectives():
            obj = make_objective(name, eta=1e-3)
            assert isinstance(obj, Objective)

    @pytest.mark.parametrize("name", sorted(BUILTIN_OBJECTIVES))
    def test_builtin_entry_builds_its_loss_and_regularizer(self, name):
        loss_cls, reg_cls = BUILTIN_OBJECTIVES[name]
        obj = make_objective(name, eta=0.02)
        assert type(obj) is loss_cls
        assert type(obj.regularizer) is reg_cls
        if reg_cls is ElasticNetRegularizer:
            assert (obj.regularizer.eta_l1, obj.regularizer.eta_l2) == (0.02, 0.02)
        elif reg_cls is not NoRegularizer:
            assert obj.regularizer.eta == pytest.approx(0.02)

    def test_table_holds_exactly_the_builtins(self):
        assert available_objectives() == sorted(BUILTIN_OBJECTIVES)

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(ValueError, match="available"):
            make_objective("nope")
