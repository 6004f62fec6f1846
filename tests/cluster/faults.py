"""Reusable fault-injection harness for the process cluster.

The driver exposes one observability seam — ``fault_hook(kind, payload)``,
called at ``"fleet_spawned"`` (workers just started), ``"epoch_running"``
(between the epoch's release and end barriers: the epoch cannot complete
while the hook runs) and ``"respawn"`` (recovery in progress).  The
injectors here strike through that seam with *real* signals against real
worker processes, at deterministic points in the run:

* :class:`KillPoint` names the strike — which epoch, how far into the
  epoch's work (a fraction of the epoch's total iterations, measured from
  the shared ``progress`` counters), which worker;
* :class:`FaultInjector` delivers ``SIGKILL`` (default) or ``SIGSTOP``
  (straggler simulation; pass ``resume_after`` to ``SIGCONT`` it later) and
  records every strike and respawn it observes;
* :class:`PreBarrierKiller` kills a worker right after spawn, before the
  victim can reach its first barrier — the hardest detection case for the
  driver's watchdog.

Determinism note: the *strike point* is deterministic (epoch index plus a
progress threshold over deterministic per-epoch sample streams), while the
exact iteration the signal lands on is scheduler-dependent — which is the
point: recovery must work from any mid-epoch state, and the recovered
run's loss is asserted with the same progress-relative tolerance the
cluster parity tests use (:func:`assert_loss_close`).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class KillPoint:
    """Where to strike: ``fraction`` of epoch ``epoch``'s work, worker ``victim``."""

    epoch: int = 1
    fraction: float = 0.3
    victim: int = 0

    @classmethod
    def parse(cls, spec: str, *, victim: int = 0) -> "KillPoint":
        """Parse ``"epoch:fraction"`` (the CI chaos-matrix encoding)."""
        epoch_text, _, fraction_text = spec.partition(":")
        return cls(
            epoch=int(epoch_text),
            fraction=float(fraction_text) if fraction_text else 0.3,
            victim=victim,
        )


@dataclass
class FaultInjector:
    """A ``fault_hook`` that signals one worker mid-epoch.

    Pass an instance as ``ClusterDriver(..., fault_hook=injector)``.  At
    the kill point's epoch the injector waits (inside the hook — the epoch
    cannot finish meanwhile) until the fleet's summed ``progress`` crosses
    ``fraction`` of the epoch's total iterations, then sends ``sig`` to the
    victim process.  Strikes once per run unless ``max_strikes`` says
    otherwise; every strike and observed respawn is recorded.

    The driver zeroes ``progress`` before every fleet spawn, and each epoch
    adds exactly its total iterations, so the epoch's start value follows
    from the epoch the current fleet started at.  Reading it inside the
    hook instead would miss the work the fleet did before the hook ran.
    """

    kill_point: KillPoint = field(default_factory=KillPoint)
    sig: int = signal.SIGKILL
    resume_after: Optional[float] = None     # SIGCONT delay for SIGSTOP strikes
    max_strikes: int = 1
    wait_timeout: float = 60.0
    strikes: List[Dict[str, Any]] = field(default_factory=list)
    respawns: List[int] = field(default_factory=list)
    fleet_epoch: int = 0                     # start epoch of the current fleet

    def __call__(self, kind: str, payload: Dict[str, Any]) -> None:
        if kind == "respawn":
            self.respawns.append(int(payload["epoch"]))
            return
        if kind == "fleet_spawned":
            self.fleet_epoch = int(payload["epoch"])
            return
        if kind != "epoch_running" or len(self.strikes) >= self.max_strikes:
            return
        if int(payload["epoch"]) != self.kill_point.epoch:
            return
        procs = payload["procs"]
        victim = procs[self.kill_point.victim]
        progress = payload["arena"]["progress"]
        total = int(payload["total_iterations"])
        baseline = (self.kill_point.epoch - self.fleet_epoch) * total
        target = baseline + self.kill_point.fraction * total
        deadline = time.monotonic() + self.wait_timeout
        while int(progress.sum()) < target:
            if time.monotonic() >= deadline or not victim.is_alive():
                break
            time.sleep(0.001)
        if not victim.is_alive():
            return
        os.kill(victim.pid, self.sig)
        # Did the victim already finish its epoch and park at the end
        # barrier?  A post-arrival kill in the *final* epoch completes
        # the run correctly with no recovery — callers assert accordingly.
        arrived = int(payload["arena"]["barrier_arrive"][self.kill_point.victim])
        self.strikes.append(
            {
                "epoch": int(payload["epoch"]),
                "victim": self.kill_point.victim,
                "pid": victim.pid,
                "signal": int(self.sig),
                "progress": int(progress.sum()) - baseline,
                "post_epoch": arrived >= int(payload["gen_end"]),
            }
        )
        if self.sig == signal.SIGSTOP and self.resume_after is not None:
            timer = threading.Timer(
                self.resume_after, _signal_if_alive, (victim, signal.SIGCONT)
            )
            timer.daemon = True
            timer.start()


def _signal_if_alive(proc, sig: int) -> None:
    try:
        if proc.is_alive():
            os.kill(proc.pid, sig)
    except (OSError, ValueError):  # already reaped
        pass


@dataclass
class PreBarrierKiller:
    """Kill a worker immediately after spawn, before its first barrier wait.

    Exercises the watchdog path where the barrier can never be aborted by
    the dying worker itself (it dies outside any barrier wait).
    """

    victim: int = 0
    sig: int = signal.SIGKILL
    strikes: List[Dict[str, Any]] = field(default_factory=list)
    respawns: List[int] = field(default_factory=list)
    max_strikes: int = 1

    def __call__(self, kind: str, payload: Dict[str, Any]) -> None:
        if kind == "respawn":
            self.respawns.append(int(payload["epoch"]))
            return
        if kind != "fleet_spawned" or len(self.strikes) >= self.max_strikes:
            return
        victim = payload["procs"][self.victim]
        os.kill(victim.pid, self.sig)
        self.strikes.append(
            {"epoch": int(payload["epoch"]), "victim": self.victim, "pid": victim.pid}
        )


def assert_loss_close(loss_run, loss_ref, loss_zero, *, tolerance: float = 0.25):
    """The cluster parity assertion: |Δloss| within ``tolerance`` of progress.

    Real concurrency is not bit-reproducible, so cluster runs (recovered or
    not) are compared to a reference by final loss relative to the
    reference's *progress* from the zero vector — the same tolerance the
    non-faulty cluster/simulator parity tests apply.
    """
    progress = loss_zero - loss_ref
    assert progress > 0, "reference run made no progress; test problem too easy"
    assert abs(loss_run - loss_ref) <= tolerance * progress, (
        f"loss {loss_run:.6f} deviates from reference {loss_ref:.6f} "
        f"by more than {tolerance} of its progress {progress:.6f}"
    )


__all__ = [
    "KillPoint",
    "FaultInjector",
    "PreBarrierKiller",
    "assert_loss_close",
]
