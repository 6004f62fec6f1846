"""repro — a reproduction of "IS-ASGD: Accelerating Asynchronous SGD using
Importance Sampling" (Wang et al., ICPP 2018).

The package implements the paper's contribution (importance-sampled
asynchronous SGD with importance balancing) together with every substrate
it depends on: a sparse-matrix container and kernels, objective functions,
synthetic dataset surrogates, serial and asynchronous baseline solvers, a
perturbed-iterate asynchrony simulator with a calibrated cost model, the
conflict-graph and convergence-theory tooling, and an experiment harness
that regenerates each table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import load_dataset, LogisticObjective, Problem, ISASGDSolver, ISASGDConfig
>>> ds = load_dataset("news20_smoke", seed=0)
>>> problem = Problem(X=ds.X, y=ds.y, objective=LogisticObjective.l1_regularized(1e-4))
>>> solver = ISASGDSolver(ISASGDConfig(step_size=0.5, epochs=3, num_workers=4))
>>> result = solver.fit(problem)
>>> result.best_error_rate <= 0.5
True
"""

from repro.core import ISASGDConfig, ISASGDSolver
from repro.core.balancing import BalancingDecision, balance_dataset
from repro.core.importance import ImportanceScheme, lipschitz_probabilities
from repro.core.sampler import AliasSampler, SampleSequence
from repro.datasets import Dataset, load_dataset
from repro.objectives import (
    HingeObjective,
    LeastSquaresObjective,
    LogisticObjective,
    SquaredHingeObjective,
    make_objective,
)
from repro.rules import UpdateRuleKernel, available_rules, make_rule
from repro.runtime import ExecutionRequest, ExecutionResult, capability_matrix
from repro.solvers import (
    ASGDSolver,
    ISSGDSolver,
    Problem,
    SGDSolver,
    SVRGASGDSolver,
    TrainResult,
    make_solver,
)
from repro.sparse import CSRMatrix, load_libsvm
from repro.async_engine import CostModel
from repro.cluster import ClusterDriver

__version__ = "7.0.0"

__all__ = [
    "__version__",
    # core
    "ISASGDSolver",
    "ISASGDConfig",
    "ImportanceScheme",
    "BalancingDecision",
    "balance_dataset",
    "lipschitz_probabilities",
    "AliasSampler",
    "SampleSequence",
    # data
    "Dataset",
    "load_dataset",
    "CSRMatrix",
    "load_libsvm",
    # objectives
    "LogisticObjective",
    "SquaredHingeObjective",
    "HingeObjective",
    "LeastSquaresObjective",
    "make_objective",
    # solvers
    "Problem",
    "TrainResult",
    "SGDSolver",
    "ISSGDSolver",
    "ASGDSolver",
    "SVRGASGDSolver",
    "make_solver",
    # runtime (rules × backends)
    "UpdateRuleKernel",
    "available_rules",
    "make_rule",
    "ExecutionRequest",
    "ExecutionResult",
    "capability_matrix",
    # engine
    "CostModel",
    # cluster (true multi-process execution)
    "ClusterDriver",
]
