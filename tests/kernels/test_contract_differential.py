"""Differential tests of the kernel contract: every backend against ``reference``.

Hypothesis draws small CSR problems — 0 to 10 rows over 1 to 8 features,
empty rows and the empty matrix included — and row selections that repeat
rows or select none.  Half the problems are finite; in the other half NaN
and ±inf may appear in the CSR data, the weights and the labels.  Each
primitive of :class:`~repro.kernels.base.KernelBackend` must then give on
each compared backend (one parametrisation each, so a failure names the
backend) what the ``reference`` backend gives, NaN where it gives NaN, for
every registered objective where the primitive takes one.  The native fused
frozen block is compared with the composable path it replaces (reference
``segment_margins``, then ``SGDRule.block_entry_weights``, then
``scatter_add``).

Calls outside the contract — a ``w`` of the wrong shape, indices past an
array, segment lengths that do not tile the gathered arrays, per-row arrays
of the wrong size — must raise ``ValueError`` or ``IndexError`` on every
kernel.  The C loops do no bounds checks of their own, so the native cases
run in a child process: without the entry-point checks some of them crash
it.

Without a C compiler ``native`` falls back to ``vectorized``, and its cases
re-check ``vectorized``.  Examples are derandomized so a run is
reproducible; an input that ever fails is kept as an ``@example``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels.registry import make_backend
from repro.objectives.registry import available_objectives, make_objective
from repro.rules.sgd import SGDRule
from repro.sparse.csr import CSRMatrix

COMPARED = ["vectorized", "native"]
RTOL = 1e-10
ATOL = 1e-10
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
#: Per objective, so every registered one sees its own examples.
OBJECTIVE_SETTINGS = settings(SETTINGS, max_examples=25)

#: Finite values: a dyadic grid, on which every summation order is exact
#: (so ties such as a zero margin or a hinge kink are hit exactly), mixed
#: with general floats kept away from magnitudes that vanish in a sum.
VALUES = st.one_of(
    st.integers(-8, 8).map(lambda k: k / 4.0),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False).filter(
        lambda v: v == 0.0 or abs(v) >= 1e-3
    ),
)


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def _poison(draw, arr: np.ndarray) -> None:
    """Overwrite up to two entries of ``arr`` with NaN or ±inf.

    A few, not many: one NaN in a row turns its margin and every write of
    its step into NaN, which would mask what an infinity alone does.
    """
    if arr.size:
        for pos in draw(st.lists(st.integers(0, arr.size - 1), max_size=2)):
            arr[pos] = draw(NON_FINITE)


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
    if draw(st.booleans()):  # the non-finite half
        for arr in (X.data, w, labels, targets):
            _poison(draw, arr)
    rows = np.array(
        draw(st.lists(st.integers(0, n_rows - 1), max_size=12)) if n_rows else [],
        dtype=np.int64,
    )
    # Small steps keep a sequential block from amplifying rounding noise.
    scales = np.array(
        draw(st.lists(VALUES, min_size=rows.size, max_size=rows.size)), dtype=np.float64
    ) / 64.0
    return X, w, labels, targets, rows, scales


def _case(entries, n_cols, w, labels, rows=(), scales=()):
    """One hand-written case in the ``problems()`` layout, zero targets."""
    return (
        CSRMatrix.from_rows(entries, n_cols=n_cols),
        np.array(w, dtype=np.float64),
        np.array(labels, dtype=np.float64),
        np.zeros(len(labels)),
        np.array(rows, dtype=np.int64),
        np.array(scales, dtype=np.float64),
    )


# Inputs that once failed.  Native L1 must not form 0 * inf for the L2
# term pure L1 lacks: [inf, 0.5] steps to [inf, 0.55], not [nan, 0.55].
L1_AT_INF = _case([([0, 1], [1.0, 1.0])], 2, [np.inf, 0.5], [1.0], [0], [0.1])
L1_AT_MINUS_INF = _case([([0, 1], [1.0, 1.0])], 2, [-np.inf, 0.5], [1.0], [0], [0.1])
L1_AT_INF_FROZEN = _case([([0], [0.25])], 1, [np.inf], [-1.0], [0], [0.0])
# A NaN slack is a NaN hinge loss on every kernel, not max(0, NaN) = 0.
HINGE_NAN_LABEL = _case([([], [])], 1, [0.0], [np.nan])
# The squared hinge's derivative is 0 where the hinge is inactive, also for
# an infinite label: not -2y * max(0, slack) = inf * 0 = NaN.
SQUARED_HINGE_INF_LABEL = _case([([0], [-0.25])], 1, [1.0], [-np.inf], [0], [0.0])


@pytest.fixture(scope="module")
def kernels():
    """``reference`` and the compared backends by name, resolved once."""
    return {name: make_backend(name) for name in ["reference", *COMPARED]}


@pytest.fixture(autouse=True)
def _quiet_float_errors():
    """NaN and inf inputs make numpy warn about invalid operations."""
    with np.errstate(all="ignore"):
        yield


def _labels_for(obj, labels, targets):
    return labels if obj.is_classification else targets


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL, equal_nan=True)


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
    @example(case=L1_AT_INF)
    @example(case=L1_AT_MINUS_INF)
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
    @example(case=HINGE_NAN_LABEL)
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
@example(case=L1_AT_INF_FROZEN)
@example(case=SQUARED_HINGE_INF_LABEL)
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


# ---------------------------------------------------------------------- #
# Calls outside the contract
# ---------------------------------------------------------------------- #
#: Two rows that reach column 9 of 10.
BAD_X = CSRMatrix.from_rows([([0, 9], [1.0, 2.0]), ([5], [3.0])], n_cols=10)
BAD_Y = np.array([1.0, -1.0])
BAD_OBJ = make_objective("logistic_l1", eta=1e-3)
ONES = np.ones(10)


def _idx(*cols):
    return np.array(cols, dtype=np.int32)


#: Calls that address memory outside an argument; every kernel must raise
#: ValueError or IndexError.  The C loops have no bounds checks, so before
#: the native entry points checked their arguments these read or wrote past
#: a buffer (``margins/row_past_end`` died with SIGSEGV, ``scatter_add``
#: corrupted the heap) or, on every kernel, ignored entries
#: (``segment_margins/lengths_past_entries`` returned [3, 0]).
INVALID_CALLS = {
    "matvec/short_w": lambda k: k.matvec(BAD_X, np.ones(3)),
    "margins/short_w": lambda k: k.margins(BAD_X, np.ones(3)),
    "margins/short_w_rows": lambda k: k.margins(BAD_X, np.ones(3), np.array([0, 1])),
    "margins/row_past_end": lambda k: k.margins(BAD_X, ONES, np.array([5])),
    "margins/negative_row": lambda k: k.margins(BAD_X, ONES, np.array([-1])),
    "segment_margins/idx_past_w": lambda k: k.segment_margins(
        _idx(0, 12), np.ones(2), np.array([2]), ONES),
    "segment_margins/lengths_past_entries": lambda k: k.segment_margins(
        _idx(0, 1), np.ones(2), np.array([2, 5]), ONES),
    "segment_margins/negative_length": lambda k: k.segment_margins(
        _idx(0, 1), np.ones(2), np.array([3, -1]), ONES),
    "segment_margins/short_val": lambda k: k.segment_margins(
        _idx(0, 1), np.ones(1), np.array([2]), ONES),
    "scatter_add/idx_past_w": lambda k: k.scatter_add(np.ones(3), _idx(0, 5, 9), np.ones(3)),
    "scatter_add/short_weights": lambda k: k.scatter_add(ONES.copy(), _idx(0, 5, 9), np.ones(1)),
    "sample_update/short_w": lambda k: k.sample_update(np.ones(3), BAD_OBJ, BAD_X, 0, 1.0, 0.1),
    "sample_update/row_past_end": lambda k: k.sample_update(
        ONES.copy(), BAD_OBJ, BAD_X, 2, 1.0, 0.1),
    "run_sample_block/short_w": lambda k: k.run_sample_block(
        np.ones(3), BAD_OBJ, BAD_X, BAD_Y, np.array([0]), np.ones(1)),
    "run_sample_block/row_past_end": lambda k: k.run_sample_block(
        ONES.copy(), BAD_OBJ, BAD_X, BAD_Y, np.array([7]), np.ones(1)),
    "run_sample_block/short_y": lambda k: k.run_sample_block(
        ONES.copy(), BAD_OBJ, BAD_X, np.ones(1), np.array([1]), np.ones(1)),
    "run_sample_block/short_scales": lambda k: k.run_sample_block(
        ONES.copy(), BAD_OBJ, BAD_X, BAD_Y, np.array([0, 1]), np.ones(1)),
    "evaluate/short_w": lambda k: k.evaluate(BAD_OBJ, BAD_X, BAD_Y, np.ones(3)),
    "evaluate/empty_y": lambda k: k.evaluate(BAD_OBJ, BAD_X, np.ones(0), ONES),
}

#: Calls numpy lets through (it wraps a negative index and broadcasts a
#: length-1 array) but C would follow past a buffer, and the fused frozen
#: block only ``native`` has: only a compiled native kernel must raise.
NATIVE_INVALID_CALLS = {
    "segment_margins/negative_idx": lambda k: k.segment_margins(
        _idx(-1, 0), np.ones(2), np.array([2]), ONES),
    "scatter_add/negative_idx": lambda k: k.scatter_add(ONES.copy(), _idx(-1), np.ones(1)),
    "evaluate/one_y": lambda k: k.evaluate(BAD_OBJ, BAD_X, np.ones(1), ONES),
    "run_frozen_block/idx_past_w": lambda k: k.run_frozen_block(
        ONES.copy(), BAD_OBJ, _idx(0, 12), np.ones(2), np.array([2]), np.ones(1), np.ones(1)),
    "run_frozen_block/lengths_past_entries": lambda k: k.run_frozen_block(
        ONES.copy(), BAD_OBJ, _idx(0, 1), np.ones(2), np.array([2, 5]), np.ones(2), np.ones(2)),
    "run_frozen_block/short_scales": lambda k: k.run_frozen_block(
        ONES.copy(), BAD_OBJ, _idx(0, 1), np.ones(2), np.array([1, 1]), np.ones(2), np.ones(1)),
}


def _outcome(call, kernel) -> str:
    try:
        call(kernel)
    except (ValueError, IndexError):
        return "rejected"
    except Exception as exc:  # reported, so a failure names what was raised
        return f"raised {type(exc).__name__}"
    return "returned"


def _print_native_outcomes() -> None:
    """Child-process side of :func:`native_outcomes`: one line per call."""
    kernel = make_backend("native")
    calls = dict(INVALID_CALLS)
    if kernel.name == "native":
        calls.update(NATIVE_INVALID_CALLS)
    for name, call in calls.items():
        print(name, _outcome(call, kernel), flush=True)


@pytest.fixture(scope="module")
def native_outcomes():
    """Each invalid call's outcome on ``native``, from one child process
    (a call that reaches C unchecked may kill it), and its return code."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from tests.kernels.test_contract_differential import _print_native_outcomes\n"
         "_print_native_outcomes()"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    outcomes = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    return outcomes, proc.returncode


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("call", sorted(INVALID_CALLS))
def test_python_kernels_reject_invalid_calls(kernels, backend, call):
    assert _outcome(INVALID_CALLS[call], kernels[backend]) == "rejected"


@pytest.mark.parametrize("call", sorted(INVALID_CALLS) + sorted(NATIVE_INVALID_CALLS))
def test_native_rejects_invalid_calls(kernels, native_outcomes, call):
    if call in NATIVE_INVALID_CALLS and kernels["native"].name != "native":
        pytest.skip("the native extension is not built here")
    outcomes, returncode = native_outcomes
    assert outcomes.get(call) == "rejected", (
        f"{call}: {outcomes.get(call, 'no outcome')}; the child exited with {returncode}"
    )
