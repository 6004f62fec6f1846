"""Consistent checkpoints of a cluster run.

Fault tolerance of the process tier rests on one invariant: at every epoch
barrier the shared-memory arena is *quiescent* — every worker sits at the
next release barrier, no lock-free write is in flight — so the driver can
take a consistent cut of the whole run:

* the parameter vector (in global coordinate order, the arena's own
  layout, so it restores bit-identically at any fleet size).  It is the
  only rule state a checkpoint needs: SVRG's snapshot blocks are
  *recomputed* from the weights at every epoch start;
* the sampler stream (the seed root plus the per-worker seeds of the next
  epoch — each worker's per-epoch sequence is derived from
  ``(seed_root, worker_id, epoch)`` alone, so a resumed fleet replays the
  exact same draws whatever its size);
* the measured history folded so far (the
  :class:`~repro.async_engine.events.ExecutionTrace`, the per-epoch
  seconds/delay/skew/steal series and the coordinate-write totals).

The driver keeps no other copy of that history: a run's state *is* its
last cut (:meth:`ClusterCheckpoint.copy` takes the next epoch's fold).

:class:`CheckpointStore` persists checkpoints as content-addressed JSON in
the PR 4 artifact-store idiom — the filename is derived from the run's
*identity* (data digest, objective, rule, step size, seed — deliberately
**excluding** cluster membership) plus the epoch, and writes are atomic
(:func:`repro.experiments.store.atomic_write_json`), so a run killed
mid-checkpoint never leaves a half-artifact.  Arrays are encoded as
base64 of their raw bytes (:mod:`repro.utils.arrays`, the run artifacts'
codec too): restore is bit-exact, not merely close.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.async_engine.events import ExecutionTrace
from repro.utils.arrays import decode_array, encode_array

#: On-disk checkpoint schema version (bump on incompatible layout changes).
CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class ClusterCheckpoint:
    """One consistent cut of a cluster run after ``epoch`` epochs.

    Attributes
    ----------
    identity:
        The run identity dict the checkpoint is keyed by (see
        :meth:`repro.cluster.driver.ClusterDriver.checkpoint_identity`).
        Membership (the worker count) is *not* part of the identity, so a
        checkpoint written at one fleet size resumes at any other.
    epoch:
        Number of *completed* epochs the checkpoint represents.
    weights:
        Parameter vector in global coordinate order.
    rule:
        Update-rule registry name of the run.
    sampler:
        ``{"seed_root": int, "next_epoch_seeds": [int, ...]}`` — the
        deterministic sampler stream position.
    shard_write_totals:
        Cumulative coordinate-write totals at the cut, one per equal
        coordinate range (one range per worker).
    trace:
        The measured :class:`ExecutionTrace` of the completed epochs.
    """

    identity: Dict[str, Any]
    epoch: int
    num_workers: int
    weights: np.ndarray
    rule: str
    sampler: Dict[str, Any] = field(default_factory=dict)
    shard_write_totals: Optional[np.ndarray] = None
    trace: ExecutionTrace = field(default_factory=ExecutionTrace)
    epoch_seconds: List[float] = field(default_factory=list)
    epoch_mean_delay: List[float] = field(default_factory=list)
    epoch_occupancy_skew: List[float] = field(default_factory=list)
    epoch_steals: List[int] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def copy(self) -> "ClusterCheckpoint":
        """A checkpoint to fold the next epoch into.

        The trace and the per-epoch series are new lists over the same
        values (an event does not change once folded), so a copy costs the
        same at every epoch.  The arrays are shared: nothing writes into a
        checkpoint's arrays, a fold replaces them.
        """
        return replace(
            self,
            trace=ExecutionTrace(epochs=list(self.trace.epochs)),
            epoch_seconds=list(self.epoch_seconds),
            epoch_mean_delay=list(self.epoch_mean_delay),
            epoch_occupancy_skew=list(self.epoch_occupancy_skew),
            epoch_steals=list(self.epoch_steals),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload (arrays bit-exact via :func:`encode_array`)."""
        return {
            "identity": self.identity,
            "epoch": int(self.epoch),
            "num_workers": int(self.num_workers),
            "weights": encode_array(self.weights),
            "rule": self.rule,
            # Always empty; readers of format 1 before 2.0.0 require the key.
            "rule_state": {},
            "sampler": self.sampler,
            "shard_write_totals": (
                encode_array(self.shard_write_totals)
                if self.shard_write_totals is not None else None
            ),
            "trace": self.trace.to_dict(),
            "epoch_seconds": [float(s) for s in self.epoch_seconds],
            "epoch_mean_delay": [float(s) for s in self.epoch_mean_delay],
            "epoch_occupancy_skew": [float(s) for s in self.epoch_occupancy_skew],
            "epoch_steals": [int(s) for s in self.epoch_steals],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ClusterCheckpoint":
        """Rebuild a checkpoint from :meth:`to_dict` output.

        Payloads written while the cluster still had a choice of parameter
        layouts carry two more keys naming it, payloads written while
        checkpoints still held every completed epoch's weights carry them
        under one more key, and payloads written while a rule could keep
        shared state of its own carry it under ``rule_state``, and payloads
        of 2.1.0 and earlier carry cumulative counter totals under
        ``counters``; such keys are ignored.  A payload missing a required
        key raises :class:`ValueError`.
        """
        try:
            return cls(
                identity=dict(payload["identity"]),
                epoch=int(payload["epoch"]),
                num_workers=int(payload["num_workers"]),
                weights=decode_array(payload["weights"]),
                rule=payload["rule"],
                sampler=dict(payload["sampler"]),
                shard_write_totals=(
                    decode_array(payload["shard_write_totals"])
                    if payload.get("shard_write_totals") is not None else None
                ),
                trace=ExecutionTrace.from_dict(payload["trace"]),
                epoch_seconds=list(payload.get("epoch_seconds", [])),
                epoch_mean_delay=list(payload.get("epoch_mean_delay", [])),
                epoch_occupancy_skew=list(payload.get("epoch_occupancy_skew", [])),
                epoch_steals=[int(s) for s in payload.get("epoch_steals", [])],
            )
        except KeyError as exc:
            raise ValueError(f"checkpoint payload is missing the key {exc}") from exc


class CheckpointStore:
    """A directory of per-epoch cluster checkpoints, keyed by run identity.

    Filenames are ``ckpt-<identity sha256 prefix>-ep<epoch>.json``; every
    file also embeds the full identity dict, which :meth:`load` verifies —
    a truncated-digest collision can therefore never resume the wrong run.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    @staticmethod
    def identity_prefix(identity: Dict[str, Any]) -> str:
        """Filename-stable digest prefix of a run identity."""
        from repro.experiments.store import identity_key

        return identity_key(identity)[:40]

    def path_for(self, identity: Dict[str, Any], epoch: int) -> Path:
        """The checkpoint path of ``identity`` at ``epoch``."""
        return self.root / f"ckpt-{self.identity_prefix(identity)}-ep{int(epoch):06d}.json"

    def epochs(self, identity: Dict[str, Any]) -> List[int]:
        """Completed-epoch counts with a stored checkpoint, ascending."""
        if not self.root.is_dir():
            return []
        prefix = f"ckpt-{self.identity_prefix(identity)}-ep"
        found = []
        for path in self.root.glob(f"{prefix}*.json"):
            try:
                found.append(int(path.stem[len(prefix):]))
            except ValueError:  # pragma: no cover - foreign file
                continue
        return sorted(found)

    # ------------------------------------------------------------------ #
    def save(self, checkpoint: ClusterCheckpoint) -> Path:
        """Persist one checkpoint atomically; returns the artifact path."""
        from repro.experiments.store import atomic_write_json

        entry = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "checkpoint": checkpoint.to_dict(),
        }
        return atomic_write_json(
            self.path_for(checkpoint.identity, checkpoint.epoch), entry
        )

    def load(self, identity: Dict[str, Any], epoch: int) -> ClusterCheckpoint:
        """Load and validate the checkpoint of ``identity`` at ``epoch``."""
        path = self.path_for(identity, epoch)
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"checkpoint {path} is missing or corrupt: {exc}") from exc
        version = entry.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"checkpoint {path} has format_version {version!r}, "
                f"expected {CHECKPOINT_FORMAT_VERSION}"
            )
        checkpoint = ClusterCheckpoint.from_dict(entry["checkpoint"])
        if checkpoint.identity != identity:
            raise ValueError(
                f"checkpoint {path} belongs to a different run identity"
            )
        return checkpoint

    def latest(
        self, identity: Dict[str, Any], *, max_epoch: Optional[int] = None
    ) -> Optional[ClusterCheckpoint]:
        """The newest stored checkpoint of ``identity`` (or ``None``).

        ``max_epoch`` bounds the search — resuming a 4-epoch run ignores
        checkpoints a longer earlier run may have written past epoch 4.
        """
        candidates = self.epochs(identity)
        if max_epoch is not None:
            candidates = [e for e in candidates if e <= max_epoch]
        if not candidates:
            return None
        return self.load(identity, candidates[-1])

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return len(list(self.root.glob("ckpt-*.json")))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointStore({str(self.root)!r}, checkpoints={len(self)})"


__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "ClusterCheckpoint",
    "CheckpointStore",
]
