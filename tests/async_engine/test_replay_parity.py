"""Differential test: the batched conflict replay against the per-sample engine.

For every registered rule, the batched engine's
per-iteration events — schedule, sample, delay, conflicts, support size,
step scale — must equal :class:`AsyncSimulator`'s on the same seed.  The
inputs are small random CSR matrices with the awkward shapes drawn in:
empty rows, a column every row touches and a single feature; any worker
count, delay model and block size, including delays up to twice the
block and a bounded history shorter than the delay.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.async_engine.batched import BatchedSimulator
from repro.async_engine.simulator import AsyncSimulator
from repro.async_engine.staleness import ConstantDelay, GeometricDelay, UniformDelay
from repro.async_engine.worker import build_workers
from repro.core.partition import partition_dataset
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import L2Regularizer
from repro.rules import available_rules, make_rule
from repro.sparse.csr import CSRMatrix

OBJECTIVE = LogisticObjective(regularizer=L2Regularizer(1e-3))
EXACT_RULES = available_rules()
DELAYS = {"uniform": UniformDelay, "constant": ConstantDelay, "geometric": GeometricDelay}


@st.composite
def scenarios(draw):
    n_rows = draw(st.integers(1, 18))
    n_cols = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.normal(size=(n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < draw(st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        dense[:, rng.integers(n_cols)] = 1.0 + rng.random(n_rows)  # a column in every row
    if draw(st.booleans()):
        dense[rng.integers(n_rows)] = 0.0  # an empty row
    workers = draw(st.integers(1, min(6, n_rows)))
    batch = draw(st.sampled_from([1, 3, 5, "auto"]))
    reach = 8 if batch == "auto" else 2 * batch
    max_delay = draw(st.integers(0, reach))
    history = None
    if max_delay > 1 and draw(st.booleans()):
        history = draw(st.integers(1, max_delay - 1))
    return dict(
        X=CSRMatrix.from_dense(dense),
        y=np.where(rng.random(n_rows) < 0.5, -1.0, 1.0),
        workers=workers,
        importance=draw(st.booleans()),
        delay=DELAYS[draw(st.sampled_from(sorted(DELAYS)))](max_delay),
        batch=batch,
        history=history,
        rule=draw(st.sampled_from(EXACT_RULES)),
        seed=draw(st.integers(0, 1000)),
    )


def _events(engine_cls, s, **extra):
    n = s["X"].n_rows
    partition = partition_dataset(np.arange(n), OBJECTIVE.lipschitz_constants(s["X"]), s["workers"])
    workers = build_workers(partition, max(1, n // s["workers"]), seed=s["seed"],
                            importance_sampling=s["importance"])
    result = engine_cls(
        X=s["X"], y=s["y"], workers=workers, update_rule=make_rule(s["rule"], OBJECTIVE, 0.05),
        staleness=s["delay"], seed=s["seed"], record_iterations=True, history=s["history"],
        **extra,
    ).run(2, regenerate=True)
    events = [
        (e.global_step, e.worker_id, e.sample_index, e.delay, e.conflicts, e.grad_nnz, e.step_scale)
        for e in result.trace.iterations
    ]
    epochs = [
        (e.iterations, e.conflicts, e.stale_reads, e.history_overflows, e.max_observed_delay)
        for e in result.trace.epochs
    ]
    return events, epochs


@settings(max_examples=60, deadline=None)
@given(s=scenarios())
def test_batched_events_equal_the_per_sample_engine(s):
    per_sample = _events(AsyncSimulator, s)
    batched = _events(BatchedSimulator, s, batch_size=s["batch"])
    assert batched == per_sample
