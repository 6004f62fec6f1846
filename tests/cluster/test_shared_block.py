"""The process worker's fused block against the composable path it replaces.

``native`` runs a worker block of ``sgd``/``is_sgd`` as one
``run_shared_block`` call; every other kernel, and SVRG, runs
:func:`repro.cluster.worker.composable_block`.  On a crafted arena whose
coordinates were last written by another worker after the block's
``t_read``, by another worker before it, by the block's own worker, and
never, both paths must measure the same block exactly (conflicts,
``t_write``, stamps, range tallies) and write the same weights up to float
association.  Calls outside the contract must be rejected by both; the C
loop has no bounds checks, so the native cases run in a child process and
must also leave every buffer untouched.  Finally, fleets: six fused
workers sharing fewer cores must count every write exactly once, and a
1-worker fleet, where the interleaving is deterministic, must trace and
fit alike on ``native`` and ``vectorized``.
"""

import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import CheckpointStore, ClusterDriver
from repro.cluster.shm import ShmArena
from repro.cluster.worker import composable_block
from repro.core.balancing import random_order
from repro.core.partition import partition_dataset
from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.kernels.registry import make_backend
from repro.objectives.registry import available_objectives, make_objective
from repro.rules import make_rule
from repro.sparse.csr import CSRMatrix

#: Columns 0..9.  Row 0 meets column 0 (another worker wrote it after
#: t_read), row 1 only columns written before t_read, by the block's own
#: worker or never, row 2 column 4 (another worker's write at exactly
#: t_read, which is not later), row 3 is empty and row 4 meets column 6
#: (another worker, after t_read) and column 9 (never written).
X = CSRMatrix.from_rows(
    [
        ([0, 3], [1.0, -0.5]),
        ([1, 2, 3], [0.25, 2.0, 1.0]),
        ([4, 5], [-1.0, 0.75]),
        ([], []),
        ([2, 6, 9], [0.5, 1.5, -2.0]),
    ],
    n_cols=10,
)
Y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
WORKER = 1
T_READ = 5
PROGRESS = [3, 4, 2]                              # t_write = 9
LAST_WRITER = [0, 2, 1, -1, 0, 1, 2, -1, 2, -1]
WRITE_CLOCK = [7, 3, 8, 0, 5, 2, 9, 0, 1, 0]
BOUNDS = [0, 3, 6, 10]                            # three equal-ish ranges
#: Rows repeat (so coordinates alias within the block) and include the
#: empty row; rows 0 and 4 are the conflicts.
ROWS = np.array([0, 1, 4, 2, 3, 1], dtype=np.int64)
STEP_WEIGHTS = np.array([1.0, 0.5, 2.0, 1.5, 1.0, 0.75])


def _arena(arena: ShmArena) -> dict:
    """The crafted measuring state, as shared blocks of ``arena``."""
    w = np.linspace(-0.3, 0.6, X.n_cols)
    return dict(
        w=arena.create("weights", (X.n_cols,), "float64", initial=w),
        progress=arena.create("progress", (3,), "int64", initial=PROGRESS),
        last_writer=arena.create("last_writer", (X.n_cols,), "int32", initial=LAST_WRITER),
        write_clock=arena.create("write_clock", (X.n_cols,), "int64", initial=WRITE_CLOCK),
        range_bounds=arena.create("range_bounds", (4,), "int64", initial=BOUNDS),
        range_writes=arena.create("shard_writes", (3, 3), "int64")[WORKER],
    )


def _run(kernel, rule, state, rows=ROWS, step_weights=STEP_WEIGHTS, y=Y):
    """One block as the worker runs it on ``kernel``: fused where it can."""
    stamps = {k: v for k, v in state.items() if k != "w"}
    if rule.runs_fused_on(kernel):
        return kernel.run_shared_block(
            state["w"], rule.objective, X, y, rows, -rule.step_size * step_weights,
            worker_id=WORKER, t_read=T_READ, **stamps,
        )
    return composable_block(
        kernel, rule, X, y, state["w"], rows, step_weights,
        worker_id=WORKER, t_read=T_READ, **stamps,
    )


@pytest.fixture(scope="module")
def native():
    kernel = make_backend("native")
    if kernel.name != "native":
        pytest.skip("the native extension is not built here")
    return kernel


@pytest.mark.parametrize("rule_name", ["sgd", "is_sgd"])
@pytest.mark.parametrize("objective_name", available_objectives())
def test_fused_block_measures_and_writes_like_the_composable_path(
    native, rule_name, objective_name
):
    rule = make_rule(rule_name, make_objective(objective_name, eta=1e-2), 0.1)
    assert rule.runs_fused_on(native)
    assert not rule.runs_fused_on(make_backend("vectorized"))
    with ShmArena() as fused_arena, ShmArena() as plain_arena:
        fused, plain = _arena(fused_arena), _arena(plain_arena)
        got = _run(native, rule, fused)
        want = _run(make_backend("vectorized"), rule, plain)

        assert want == (9, 2, 2 + 3 + 3 + 2 + 0 + 3)
        assert got == want
        for name in ("progress", "last_writer", "write_clock", "range_writes"):
            assert fused[name].tobytes() == plain[name].tobytes(), name
        np.testing.assert_allclose(fused["w"], plain["w"], rtol=1e-12, atol=0.0)
        assert not np.array_equal(fused["w"], np.linspace(-0.3, 0.6, X.n_cols))
        # Every written coordinate carries the block's stamp; the rest keep theirs.
        written = np.unique(X.gather_rows(ROWS)[0])
        assert np.all(plain["write_clock"][written] == 9)
        assert np.all(plain["last_writer"][written] == WORKER)
        untouched = np.setdiff1d(np.arange(X.n_cols), written)
        assert plain["write_clock"][untouched].tolist() == [WRITE_CLOCK[j] for j in untouched]
        assert plain["range_writes"].tolist() == [6, 5, 2]


@pytest.mark.parametrize("name", ["reference", "vectorized"])
def test_pure_python_kernels_have_no_shared_block(name):
    kernel = make_backend(name)
    with ShmArena() as arena:
        state = _arena(arena)
        w = state.pop("w")
        with pytest.raises(NotImplementedError):
            kernel.run_shared_block(
                w, make_objective("logistic"), X, Y, ROWS, STEP_WEIGHTS,
                worker_id=WORKER, t_read=T_READ, **state,
            )


# ---------------------------------------------------------------------- #
# Calls outside the contract
# ---------------------------------------------------------------------- #
def _with(name, edit):
    """A state edit: ``name``'s array replaced by ``edit(array)``."""
    return lambda state: {**state, name: edit(state[name])}


#: Each case edits the call, the state or both; the composable path on
#: ``vectorized`` and the native entry point must both raise ValueError or
#: IndexError.  The composable path may write before it raises (its range
#: tally comes last); native must raise before its C loop writes anything.
INVALID_BLOCKS = {
    "row_past_end": dict(rows=np.array([0, 5, 1]), step_weights=np.ones(3)),
    "negative_row": dict(rows=np.array([0, -1, 1]), step_weights=np.ones(3)),
    "short_scales": dict(step_weights=STEP_WEIGHTS[:-1]),
    "long_scales": dict(step_weights=np.ones(ROWS.size + 1)),
    "short_y": dict(y=Y[:3]),
    "short_last_writer": dict(state=_with("last_writer", lambda a: a[:8])),
    "short_write_clock": dict(state=_with("write_clock", lambda a: a[:8])),
    "short_range_writes": dict(state=_with("range_writes", lambda a: a[:2])),
    "bounds_above_zero": dict(state=_with("range_bounds", lambda a: np.array([1, 3, 6, 10]))),
    "bounds_short_of_d": dict(state=_with("range_bounds", lambda a: np.array([0, 3, 6, 8]))),
}

#: Cases numpy lets through (it reads unsorted bounds and writes through a
#: view of another dtype or layout) but C would follow past a buffer or
#: write a copy: only native must raise.
NATIVE_INVALID_BLOCKS = {
    "bounds_not_rising": dict(state=_with("range_bounds", lambda a: np.array([0, 7, 3, 10]))),
    "int64_last_writer": dict(state=_with("last_writer", lambda a: a.astype(np.int64))),
    "strided_w": dict(state=_with("w", lambda a: np.zeros(2 * a.size)[::2])),
}


def _outcome(kernel, case) -> str:
    """``rejected`` (untouched buffers, for native), or what happened instead."""
    rule = make_rule("sgd", make_objective("logistic_l1", eta=1e-2), 0.1)
    with ShmArena() as arena:
        state = _arena(arena)
        state = case.get("state", lambda s: s)(state)
        before = {k: np.array(v, copy=True) for k, v in state.items()}
        kwargs = {k: case[k] for k in ("rows", "step_weights", "y") if k in case}
        try:
            _run(kernel, rule, state, **kwargs)
        except (ValueError, IndexError):
            if kernel.name == "native" and any(
                before[k].tobytes() != np.asarray(v).tobytes() for k, v in state.items()
            ):
                return "rejected after writing"
            return "rejected"
        except Exception as exc:  # reported, so a failure names what was raised
            return f"raised {type(exc).__name__}"
        return "returned"


def _print_native_outcomes() -> None:
    """Child-process side of :func:`native_outcomes`: one line per case."""
    kernel = make_backend("native")
    for name, case in {**INVALID_BLOCKS, **NATIVE_INVALID_BLOCKS}.items():
        print(name, _outcome(kernel, case), flush=True)


@pytest.fixture(scope="module")
def native_outcomes(native):
    """Each invalid case's outcome on ``native``, from one child process
    (a call that reaches C unchecked may kill it), and its return code."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from tests.cluster.test_shared_block import _print_native_outcomes\n"
         "_print_native_outcomes()"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    outcomes = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    return outcomes, proc.returncode


@pytest.mark.parametrize("case", sorted(INVALID_BLOCKS))
def test_composable_path_rejects_invalid_blocks(case):
    assert _outcome(make_backend("vectorized"), INVALID_BLOCKS[case]) == "rejected"


@pytest.mark.parametrize("case", sorted(INVALID_BLOCKS) + sorted(NATIVE_INVALID_BLOCKS))
def test_native_rejects_invalid_blocks_before_writing(native_outcomes, case):
    outcomes, returncode = native_outcomes
    assert outcomes.get(case) == "rejected", (
        f"{case}: {outcomes.get(case, 'no outcome')}; the child exited with {returncode}"
    )


# ---------------------------------------------------------------------- #
# Fleets
# ---------------------------------------------------------------------- #
needs_fork = pytest.mark.skipif("fork" not in mp.get_all_start_methods(), reason="needs fork")


@needs_fork
def test_a_fleet_larger_than_the_cores_counts_every_write_once(native, tmp_path):
    """Six fused workers on small blocks time-share the cores; however
    their blocks interleave, every iteration, sparse write and range tally
    is counted exactly once (each row has 3 entries)."""
    rng = np.random.default_rng(5)
    n, d = 240, 30
    Xs = CSRMatrix.from_rows(
        [(sorted(rng.choice(d, 3, replace=False).tolist()), rng.normal(size=3).tolist())
         for _ in range(n)],
        n_cols=d,
    )
    ys = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    obj = make_objective("logistic_l1", eta=1e-4)
    part = partition_dataset(np.arange(n), obj.lipschitz_constants(Xs, ys), 6)
    store = CheckpointStore(tmp_path)
    driver = ClusterDriver(Xs, ys, obj, part, step_size=0.1, seed=1, batch_size=8,
                           checkpoint_store=store, kernel_name="native")
    run = driver.run(3)
    assert run.trace.total_iterations == 3 * n
    assert run.trace.total_sparse_coordinate_updates == 3 * 3 * n
    assert store.latest(driver.checkpoint_identity()).shard_write_totals.sum() == 3 * 3 * n
    assert np.all(np.isfinite(run.weights))


@needs_fork
@pytest.mark.parametrize("rule_name", ["sgd", "is_sgd"])
def test_one_worker_fleet_traces_and_fits_alike_on_native_and_vectorized(native, rule_name):
    spec = SyntheticSpec(n_samples=400, n_features=120, nnz_per_sample=7.0,
                         label_noise=0.02, name="shared_block")
    Xs, ys, _ = make_sparse_classification(spec, seed=4)
    obj = make_objective("logistic_l1", eta=1e-4)
    part = partition_dataset(random_order(Xs.n_rows, seed=0),
                             obj.lipschitz_constants(Xs, ys), 1)
    runs = {
        name: ClusterDriver(
            Xs, ys, obj, part, step_size=0.2, seed=3, rule=rule_name,
            importance_sampling=rule_name == "is_sgd", kernel_name=name,
        ).run(3)
        for name in ("native", "vectorized")
    }
    fused, plain = runs["native"], runs["vectorized"]
    assert fused.trace.to_dict() == plain.trace.to_dict()
    assert fused.trace.total_conflicts == 0
    assert fused.trace.total_iterations == 3 * Xs.n_rows
    np.testing.assert_allclose(fused.weights, plain.weights, rtol=0.0, atol=1e-10)
    assert fused.shard_write_fractions.tolist() == plain.shard_write_fractions.tolist()
