"""Acceptance tests of the elastic fault-tolerant cluster.

Headline: a worker SIGKILLed mid-epoch is detected, the fleet is respawned
from the last epoch-barrier checkpoint, the interrupted epoch replays, and
the run completes with a final loss within the same progress-relative
tolerance the non-faulty cluster parity tests use.

The chaos seed and kill point are environment-parametrized
(``REPRO_CHAOS_SEED``, ``REPRO_CHAOS_KILL_POINT`` as ``"epoch:fraction"``)
so CI can sweep a small seed x kill-point matrix over the same test body.
"""

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.cluster import CheckpointStore, ClusterDriver, WorkerFailure
from repro.cluster import driver as driver_module
from repro.core.balancing import random_order
from repro.core.partition import Partition, WorkerShard, partition_dataset
from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import L2Regularizer
from repro.rules import available_rules
from repro.solvers.asgd import ASGDSolver
from repro.solvers.base import Problem

from tests.cluster.faults import FaultInjector, KillPoint, PreBarrierKiller, assert_loss_close

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)

NUM_WORKERS = 4
EPOCHS = 3
#: Iterations each rule adds per epoch for its sync steps (SVRG's snapshot;
#: the skip-dense ablation also folds its epoch-end dense update).
SYNC_STEPS = {"sgd": 0, "is_sgd": 0, "svrg": 1, "svrg_skip_dense": 2}
STEP_SIZE = 0.2

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "5"))
CHAOS_KILL_POINT = KillPoint.parse(os.environ.get("REPRO_CHAOS_KILL_POINT", "1:0.3"))


@pytest.fixture(scope="module")
def chaos_problem() -> Problem:
    spec = SyntheticSpec(
        n_samples=600, n_features=150, nnz_per_sample=8.0, label_noise=0.02, name="chaos_test"
    )
    X, y, _ = make_sparse_classification(spec, seed=7)
    objective = LogisticObjective(regularizer=L2Regularizer(1e-4))
    return Problem(X=X, y=y, objective=objective, name=spec.name)


def _partition(problem, workers=NUM_WORKERS):
    L = problem.lipschitz_constants()
    order = random_order(problem.n_samples, seed=0)
    return partition_dataset(order, L, workers, scheme="uniform")


def _driver(problem, part, **kwargs):
    defaults = dict(step_size=STEP_SIZE, seed=CHAOS_SEED)
    defaults.update(kwargs)
    return ClusterDriver(problem.X, problem.y, problem.objective, part, **defaults)


def _must_recover(strike) -> bool:
    """Whether this strike *must* trigger a respawn.

    A kill that lands after the victim already finished its work and
    arrived at the final epoch's end barrier completes the run correctly
    with no recovery — every other strike must be recovered from.
    """
    return strike["epoch"] < EPOCHS - 1 or not strike["post_epoch"]


def _reference_loss(problem):
    """Per-sample simulator reference and the losses the tolerance needs."""
    reference = ASGDSolver(
        step_size=STEP_SIZE, epochs=EPOCHS, num_workers=NUM_WORKERS, seed=CHAOS_SEED
    ).fit(problem)
    obj, X, y = problem.objective, problem.X, problem.y
    loss_zero = obj.full_loss(np.zeros(problem.n_features), X, y)
    loss_ref = obj.full_loss(reference.weights, X, y)
    return loss_ref, loss_zero


class TestMidEpochRecovery:
    def test_sigkill_mid_epoch_recovers_and_converges(self, chaos_problem):
        """The headline acceptance criterion of the fault-tolerance work."""
        injector = FaultInjector(kill_point=CHAOS_KILL_POINT)
        driver = _driver(chaos_problem, _partition(chaos_problem), fault_hook=injector)
        result = driver.run(EPOCHS)

        assert len(injector.strikes) == 1, "harness failed to strike"
        if _must_recover(injector.strikes[0]):
            assert injector.respawns, "no recovery was observed"
            assert result.info["respawns"] >= 1
        # The interrupted epoch replayed: the trace is complete.
        assert len(result.trace.epochs) == EPOCHS
        assert [e.epoch for e in result.trace.epochs] == list(range(EPOCHS))
        assert result.trace.total_iterations >= chaos_problem.n_samples

        loss_ref, loss_zero = _reference_loss(chaos_problem)
        loss_run = chaos_problem.objective.full_loss(
            result.weights, chaos_problem.X, chaos_problem.y
        )
        assert loss_run < loss_zero
        assert_loss_close(loss_run, loss_ref, loss_zero)

    def test_single_worker_recovery_is_bit_identical(self, chaos_problem):
        """One worker is deterministic, so the rollback to the last epoch
        barrier must replay exactly: the final weights and every per-epoch
        snapshot equal a clean run's byte for byte."""
        epochs = 4
        part = _partition(chaos_problem, workers=1)
        clean_epochs, struck_epochs = [], []
        clean = _driver(
            chaos_problem, part, epoch_callback=lambda e, w: clean_epochs.append((e, w))
        ).run(epochs)
        injector = FaultInjector(kill_point=KillPoint(epoch=2, fraction=0.5))
        struck = _driver(
            chaos_problem, part, fault_hook=injector,
            epoch_callback=lambda e, w: struck_epochs.append((e, w)),
        ).run(epochs)

        assert len(injector.strikes) == 1
        assert struck.info["respawns"] >= 1
        assert struck.weights.tobytes() == clean.weights.tobytes()
        # The replayed epoch is reported once: exactly 0..E-1 on both runs.
        assert [e for e, _ in struck_epochs] == list(range(epochs))
        assert [e for e, _ in clean_epochs] == list(range(epochs))
        for (_, got), (_, want) in zip(struck_epochs, clean_epochs):
            assert got.tobytes() == want.tobytes()

    def test_single_worker_recovery_counts_the_replayed_epoch_once(self, chaos_problem):
        """A restore clears the interrupted epoch's partial counters, so a
        recovered single-worker run folds the same trace as a clean one."""
        part = _partition(chaos_problem, workers=1)
        clean = _driver(chaos_problem, part).run(EPOCHS)
        injector = FaultInjector(kill_point=KillPoint(epoch=1, fraction=0.5))
        struck = _driver(chaos_problem, part, fault_hook=injector).run(EPOCHS)
        assert struck.info["respawns"] >= 1
        assert struck.trace.to_dict() == clean.trace.to_dict()

    def test_recovery_with_persistent_store(self, chaos_problem, tmp_path):
        """Recovery works identically with checkpoints also persisted to disk."""
        store = CheckpointStore(tmp_path / "ckpts")
        injector = FaultInjector(kill_point=CHAOS_KILL_POINT)
        driver = _driver(
            chaos_problem, _partition(chaos_problem),
            fault_hook=injector, checkpoint_store=store,
        )
        result = driver.run(EPOCHS)
        assert len(injector.strikes) == 1
        if _must_recover(injector.strikes[0]):
            assert result.info["respawns"] >= 1
        assert result.info["checkpoints_persisted"] >= EPOCHS
        assert store.epochs(driver.checkpoint_identity()) == list(range(1, EPOCHS + 1))

    def test_sigstop_straggler_eventually_finishes(self, chaos_problem):
        """A SIGSTOPped worker resumed shortly after does not fail the run."""
        injector = FaultInjector(
            kill_point=KillPoint(epoch=1, fraction=0.2),
            sig=signal.SIGSTOP,
            resume_after=0.3,
        )
        driver = _driver(chaos_problem, _partition(chaos_problem), fault_hook=injector)
        result = driver.run(EPOCHS)
        assert len(injector.strikes) == 1
        # Either the stall was absorbed (resumed before barrier timeout
        # mattered) with no respawn, or recovery kicked in; both must end
        # with a complete run.
        assert len(result.trace.epochs) == EPOCHS

    def test_respawn_budget_exhaustion_raises(self, chaos_problem):
        """max_respawns=0 turns any worker death into an immediate failure."""
        injector = FaultInjector(kill_point=KillPoint(epoch=0, fraction=0.1))
        driver = _driver(
            chaos_problem, _partition(chaos_problem),
            fault_hook=injector, max_respawns=0,
        )
        with pytest.raises(WorkerFailure, match=r"died with SIGKILL"):
            driver.run(EPOCHS)

    def test_pre_barrier_death_recovers(self, chaos_problem):
        """A worker killed before its first barrier is replaced like any other."""
        killer = PreBarrierKiller(victim=2)
        driver = _driver(chaos_problem, _partition(chaos_problem), fault_hook=killer)
        result = driver.run(EPOCHS)
        assert len(killer.strikes) == 1
        assert result.info["respawns"] >= 1
        assert len(result.trace.epochs) == EPOCHS


class TestWorkStealing:
    def _skewed_partition(self, problem):
        """~90% of the samples on worker 0: the canonical straggler workload."""
        L = problem.lipschitz_constants()
        order = random_order(problem.n_samples, seed=0)
        hot, rest = order[:540], order[540:]
        chunks = np.array_split(rest, NUM_WORKERS - 1)
        shards = []
        for wid, rows in enumerate([hot, *chunks]):
            rows = np.ascontiguousarray(rows)
            shards.append(
                WorkerShard(
                    worker_id=wid,
                    row_indices=rows,
                    lipschitz=L[rows],
                    probabilities=np.full(rows.size, 1.0 / rows.size),
                )
            )
        return Partition(shards=shards, order=order)

    @pytest.mark.parametrize("rule", available_rules())
    def test_every_rule_steals_when_armed(self, chaos_problem, rule):
        """``work_stealing`` alone arms stealing each epoch; no rule opts out."""
        part = self._skewed_partition(chaos_problem)
        armed, unarmed = (
            _driver(chaos_problem, part, rule=rule, work_stealing=on, batch_size=16).run(EPOCHS)
            for on in (True, False)
        )
        assert armed.info["steal_epochs"] == EPOCHS
        assert armed.info["steal_count"] > 0
        assert sum(armed.epoch_steals) == armed.info["steal_count"]
        assert unarmed.info["steal_epochs"] == unarmed.info["steal_count"] == 0
        # Stealing moves a rule's work between workers, never loses or
        # duplicates it: one iteration per shard row and epoch, plus the
        # sync steps the rule folds into each epoch.
        expected = (sum(max(1, s.size) for s in part.shards) + SYNC_STEPS[rule]) * EPOCHS
        assert armed.trace.total_iterations == unarmed.trace.total_iterations == expected
        assert (
            armed.trace.total_sparse_coordinate_updates
            == unarmed.trace.total_sparse_coordinate_updates
        )

    def test_auto_mode_arms_on_skewed_partition(self, chaos_problem):
        part = self._skewed_partition(chaos_problem)
        driver = _driver(chaos_problem, part, work_stealing="auto", batch_size=16)
        result = driver.run(1)
        assert result.info["work_stealing"] == "auto"
        assert result.info["steal_epochs"] == 1

    def test_auto_mode_stays_off_for_balanced_partition(self, chaos_problem):
        part = _partition(chaos_problem)
        driver = _driver(chaos_problem, part, work_stealing="auto")
        result = driver.run(1)
        assert result.info["steal_epochs"] == 0
        assert result.info["steal_count"] == 0

    def test_auto_mode_compares_with_the_module_threshold(self, chaos_problem, monkeypatch):
        """``"auto"`` arms an epoch exactly when the skew exceeds
        ``STEAL_SKEW_THRESHOLD``, whatever the partition."""
        assert driver_module.STEAL_SKEW_THRESHOLD == 0.05
        monkeypatch.setattr(driver_module, "STEAL_SKEW_THRESHOLD", float(NUM_WORKERS))
        skewed = _driver(
            chaos_problem, self._skewed_partition(chaos_problem),
            work_stealing="auto", batch_size=16,
        ).run(1)
        assert skewed.info["steal_epochs"] == 0
        monkeypatch.setattr(driver_module, "STEAL_SKEW_THRESHOLD", -1.0)
        balanced = _driver(chaos_problem, _partition(chaos_problem), work_stealing="auto").run(1)
        assert balanced.info["steal_epochs"] == 1

    def test_recovered_stealing_run_counts_each_epoch_once(self, chaos_problem):
        """A respawn restores the arena from the last cut, so neither the
        interrupted epoch's partial counters nor its arming are counted:
        a recovered stealing run folds the work of a clean one."""
        part = self._skewed_partition(chaos_problem)
        clean = _driver(chaos_problem, part, work_stealing=True, batch_size=16).run(EPOCHS)
        # Early in epoch 1 the victim, which holds 90% of the work, is busy.
        injector = FaultInjector(kill_point=KillPoint(epoch=1, fraction=0.1))
        struck = _driver(
            chaos_problem, part, work_stealing=True, batch_size=16, fault_hook=injector
        ).run(EPOCHS)
        assert len(injector.strikes) == 1
        assert struck.info["respawns"] >= 1
        assert struck.info["resumed_from_epoch"] == 0
        assert struck.info["steal_epochs"] == EPOCHS
        assert len(struck.epoch_steals) == EPOCHS
        assert [e.iterations for e in struck.trace.epochs] == [
            e.iterations for e in clean.trace.epochs
        ]
        assert (
            struck.trace.total_sparse_coordinate_updates
            == clean.trace.total_sparse_coordinate_updates
        )

    def test_stealing_preserves_convergence(self, chaos_problem):
        part = self._skewed_partition(chaos_problem)
        driver = _driver(chaos_problem, part, work_stealing=True, batch_size=16)
        result = driver.run(EPOCHS)
        loss_ref, loss_zero = _reference_loss(chaos_problem)
        loss_run = chaos_problem.objective.full_loss(
            result.weights, chaos_problem.X, chaos_problem.y
        )
        assert_loss_close(loss_run, loss_ref, loss_zero)


class TestFaultInjector:
    def test_strikes_at_once_when_the_fleet_is_past_the_kill_point(self):
        """The hook runs after the epoch's release, so the fleet may already
        be 90 % through it; a 1:0.3 strike must then land at once instead of
        waiting out ``wait_timeout`` for progress that cannot come."""
        victim = mp.get_context("fork").Process(target=time.sleep, args=(30,), daemon=True)
        victim.start()
        try:
            total = 100
            # One worker, fleet spawned at epoch 0: epoch 0 is done and
            # epoch 1 is 90 % done.
            arena = {
                "progress": np.array([190], dtype=np.int64),
                "barrier_arrive": np.zeros(1, dtype=np.int64),
            }
            injector = FaultInjector(kill_point=KillPoint(epoch=1, fraction=0.3), wait_timeout=3.0)
            injector("fleet_spawned", {"epoch": 0, "procs": [victim], "arena": arena})
            started = time.monotonic()
            injector(
                "epoch_running",
                {"epoch": 1, "procs": [victim], "arena": arena,
                 "total_iterations": total, "gen_end": 4},
            )
            assert time.monotonic() - started < 1.0
            victim.join(timeout=5.0)
            assert victim.exitcode == -signal.SIGKILL
            assert [strike["progress"] for strike in injector.strikes] == [90]
        finally:
            if victim.is_alive():
                victim.kill()
                victim.join()
