"""Differential tests of the kernel contract: every backend against ``reference``.

Hypothesis draws small CSR problems — 0 to 10 rows over 1 to 8 features,
empty rows and the empty matrix included — with finite values, and row
selections that repeat rows or select none.  Each primitive of
:class:`~repro.kernels.base.KernelBackend` must then give on each compared
backend (one parametrisation each, so a failure names the backend) what the
``reference`` backend gives, for every registered objective where the
primitive takes one.  The native fused frozen block is compared with the
composable path it replaces (reference ``segment_margins``, then
``SGDRule.block_entry_weights``, then ``scatter_add``).

Without a C compiler ``native`` falls back to ``vectorized``, and its cases
re-check ``vectorized``.  Examples are derandomized so a run is
reproducible; an input that ever fails is kept as an ``@example``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.registry import make_backend
from repro.objectives.registry import available_objectives, make_objective
from repro.rules.sgd import SGDRule
from repro.sparse.csr import CSRMatrix

COMPARED = ["vectorized", "native"]
RTOL = 1e-10
ATOL = 1e-10
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
#: Per objective, so every registered one sees its own examples.
OBJECTIVE_SETTINGS = settings(SETTINGS, max_examples=15)

#: Finite values: a dyadic grid, on which every summation order is exact
#: (so ties such as a zero margin or a hinge kink are hit exactly), mixed
#: with general floats kept away from magnitudes that vanish in a sum.
VALUES = st.one_of(
    st.integers(-8, 8).map(lambda k: k / 4.0),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False).filter(
        lambda v: v == 0.0 or abs(v) >= 1e-3
    ),
)


@st.composite
def problems(draw):
    """``(X, w, labels, targets, rows, scales)`` for one differential case."""
    n_features = draw(st.integers(1, 8))
    n_rows = draw(st.integers(0, 10))
    entries = []
    for _ in range(n_rows):
        cols = draw(st.lists(st.integers(0, n_features - 1), unique=True, max_size=n_features))
        vals = draw(st.lists(VALUES, min_size=len(cols), max_size=len(cols)))
        entries.append((cols, vals))
    X = CSRMatrix.from_rows(entries, n_cols=n_features)
    w = np.array(draw(st.lists(VALUES, min_size=n_features, max_size=n_features)))
    labels = np.array(
        draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n_rows, max_size=n_rows))
    )
    targets = np.array(draw(st.lists(VALUES, min_size=n_rows, max_size=n_rows)))
    rows = np.array(
        draw(st.lists(st.integers(0, n_rows - 1), max_size=12)) if n_rows else [],
        dtype=np.int64,
    )
    # Small steps keep a sequential block from amplifying rounding noise.
    scales = np.array(
        draw(st.lists(VALUES, min_size=rows.size, max_size=rows.size)), dtype=np.float64
    ) / 64.0
    return X, w, labels, targets, rows, scales


@pytest.fixture(scope="module")
def kernels():
    """``reference`` and the compared backends by name, resolved once."""
    return {name: make_backend(name) for name in ["reference", *COMPARED]}


def _labels_for(obj, labels, targets):
    return labels if obj.is_classification else targets


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("backend", COMPARED)
class TestLinearAlgebra:
    @given(case=problems())
    @SETTINGS
    def test_matvec(self, kernels, backend, case):
        X, w, _, _, _, _ = case
        _close(kernels[backend].matvec(X, w), kernels["reference"].matvec(X, w))

    @given(case=problems())
    @SETTINGS
    def test_margins_of_all_rows_and_of_a_selection(self, kernels, backend, case):
        X, w, _, _, rows, _ = case
        ref, other = kernels["reference"], kernels[backend]
        _close(other.margins(X, w), ref.margins(X, w))
        _close(other.margins(X, w, rows), ref.margins(X, w, rows))

    @given(case=problems())
    @SETTINGS
    def test_segment_margins_of_gathered_rows(self, kernels, backend, case):
        X, w, _, _, rows, _ = case
        idx, val, lengths = X.gather_rows(rows)
        want = kernels["reference"].segment_margins(idx, val, lengths, w)
        got = kernels[backend].segment_margins(idx, val, lengths, w)
        assert got.shape == (rows.size,)
        _close(got, want)

    @given(case=problems())
    @SETTINGS
    def test_scatter_add_accumulates_repeated_indices(self, kernels, backend, case):
        X, w, _, _, rows, scales = case
        idx, val, lengths = X.gather_rows(rows)
        weights = np.repeat(scales, lengths) * val
        want = w.copy()
        kernels["reference"].scatter_add(want, idx, weights)
        got = w.copy()
        kernels[backend].scatter_add(got, idx, weights)
        _close(got, want)


@pytest.mark.parametrize("backend", COMPARED)
@pytest.mark.parametrize("objective_name", available_objectives())
class TestObjectivePrimitives:
    @given(case=problems())
    @OBJECTIVE_SETTINGS
    def test_run_sample_block(self, kernels, objective_name, backend, case):
        X, w, labels, targets, rows, scales = case
        obj = make_objective(objective_name, eta=1e-3)
        y = _labels_for(obj, labels, targets)
        want = w.copy()
        nnz = kernels["reference"].run_sample_block(want, obj, X, y, rows, scales)
        got = w.copy()
        assert kernels[backend].run_sample_block(got, obj, X, y, rows, scales) == nnz
        _close(got, want)

    @given(case=problems())
    @OBJECTIVE_SETTINGS
    def test_evaluate(self, kernels, objective_name, backend, case):
        X, w, labels, targets, _, _ = case
        obj = make_objective(objective_name, eta=1e-3)
        y = _labels_for(obj, labels, targets)
        want = kernels["reference"].evaluate(obj, X, y, w)
        got = kernels[backend].evaluate(obj, X, y, w)
        _close(got.rmse, want.rmse)
        _close(got.error_rate, want.error_rate)


@pytest.mark.parametrize("objective_name", available_objectives())
@given(case=problems())
@OBJECTIVE_SETTINGS
def test_native_frozen_block_matches_composable_path(kernels, objective_name, case):
    """One batched macro-step, as the engine runs it on ``native``, equals
    reference margins → rule entry weights → reference scatter-add."""
    X, w, labels, targets, rows, scales = case
    obj = make_objective(objective_name, eta=1e-3)
    y = _labels_for(obj, labels, targets)
    rule = SGDRule(obj, step_size=0.5)
    idx, val, lengths = X.gather_rows(rows)
    ref, native = kernels["reference"], kernels["native"]

    want = w.copy()
    margins = ref.segment_margins(idx, val, lengths, want)
    entry = rule.block_entry_weights(
        w=want, rows=rows, y=y[rows], margins=margins, step_weights=scales,
        idx=idx, val=val, lengths=lengths,
    )
    ref.scatter_add(want, idx, entry)

    got = w.copy()
    if native.fused_sample_block and native.supports_objective(obj):
        nnz = native.run_frozen_block(
            got, obj, idx, val, lengths, y[rows], -rule.step_size * scales
        )
        assert nnz == idx.size
    else:  # the vectorized fallback runs the composable path itself
        margins = native.segment_margins(idx, val, lengths, got)
        native.scatter_add(got, idx, rule.block_entry_weights(
            w=got, rows=rows, y=y[rows], margins=margins, step_weights=scales,
            idx=idx, val=val, lengths=lengths,
        ))
    _close(got, want)
