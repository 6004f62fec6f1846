"""Event records emitted by the asynchronous simulator.

The simulator aggregates per-iteration information into per-epoch
:class:`EpochEvent` records; the cost model consumes those to produce the
simulated wall-clock, and the metrics module turns them into convergence
curves.  Individual :class:`IterationEvent` objects are only materialised
when the caller asks for full tracing (they are too heavy for the large
benchmark runs).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional


@dataclass
class IterationEvent:
    """One simulated iteration (only recorded when full tracing is enabled)."""

    global_step: int
    worker_id: int
    sample_index: int
    delay: int
    conflicts: int
    grad_nnz: int
    step_scale: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "IterationEvent":
        """Rebuild an event from :meth:`to_dict` output.

        Like :meth:`EpochEvent.from_dict`, fields absent from the payload
        fall back to their dataclass defaults (once they grow any), so
        artifacts written before a field existed still load; a payload
        missing a required field raises :class:`ValueError`, not a bare
        ``KeyError``/``TypeError``.
        """
        known = {f.name: payload[f.name] for f in fields(cls) if f.name in payload}
        try:
            return cls(**known)
        except TypeError as exc:
            raise ValueError(f"IterationEvent payload is invalid: {exc}") from exc


@dataclass
class EpochEvent:
    """Aggregate record of one epoch of simulated execution."""

    epoch: int
    iterations: int = 0
    sparse_coordinate_updates: int = 0
    dense_coordinate_updates: int = 0
    conflicts: int = 0
    stale_reads: int = 0
    sample_draws: int = 0
    max_observed_delay: int = 0
    #: Stale reads whose requested delay exceeded the retained update
    #: history (the reconstruction window was explicitly truncated — see
    #: ``SharedModel.history_overflow``).
    history_overflows: int = 0

    def merge_bulk(
        self,
        *,
        iterations: int,
        grad_nnz: int,
        dense_coords: int = 0,
        conflicts: int = 0,
        sample_draws: int = 0,
        stale_reads: int = 0,
        max_delay: int = 0,
        history_overflows: int = 0,
    ) -> None:
        """Fold the summed counters of ``iterations`` iterations in at once.

        Every tier folds through this, a block or an epoch at a time, so no
        hot loop keeps per-iteration bookkeeping.
        """
        self.iterations += int(iterations)
        self.sparse_coordinate_updates += int(grad_nnz)
        self.dense_coordinate_updates += int(dense_coords)
        self.conflicts += int(conflicts)
        self.sample_draws += int(sample_draws)
        self.stale_reads += int(stale_reads)
        if max_delay > self.max_observed_delay:
            self.max_observed_delay = int(max_delay)
        self.history_overflows += int(history_overflows)

    @property
    def conflict_rate(self) -> float:
        """Conflicts per iteration within the epoch."""
        return self.conflicts / self.iterations if self.iterations else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EpochEvent":
        """Rebuild an epoch record from :meth:`to_dict` output.

        Counter fields absent from the payload fall back to their dataclass
        defaults, so artifacts written before a counter existed (e.g.
        ``history_overflows``) still load.
        """
        kwargs = {f.name: payload[f.name] for f in fields(cls) if f.name in payload}
        if "epoch" not in kwargs:
            raise ValueError("EpochEvent payload is missing the 'epoch' field")
        return cls(**kwargs)


@dataclass
class ExecutionTrace:
    """The complete per-epoch trace of one training run."""

    epochs: List[EpochEvent] = field(default_factory=list)
    iterations: Optional[List[IterationEvent]] = None

    def add_epoch(self, event: EpochEvent) -> None:
        """Append an epoch record."""
        self.epochs.append(event)

    @property
    def total_iterations(self) -> int:
        """Total iterations across all epochs."""
        return int(sum(e.iterations for e in self.epochs))

    @property
    def total_conflicts(self) -> int:
        """Total conflicts across all epochs."""
        return int(sum(e.conflicts for e in self.epochs))

    @property
    def total_sparse_coordinate_updates(self) -> int:
        """Total sparse coordinate writes across all epochs."""
        return int(sum(e.sparse_coordinate_updates for e in self.epochs))

    @property
    def total_dense_coordinate_updates(self) -> int:
        """Total dense coordinate writes across all epochs."""
        return int(sum(e.dense_coordinate_updates for e in self.epochs))

    @property
    def total_history_overflows(self) -> int:
        """Total truncated stale-read reconstructions across all epochs."""
        return int(sum(e.history_overflows for e in self.epochs))

    def conflict_rate(self) -> float:
        """Overall conflicts per iteration."""
        total = self.total_iterations
        return self.total_conflicts / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (inverse of :meth:`from_dict`).

        Per-iteration events are included only when they were recorded
        (full tracing); the common per-epoch-only trace stays compact.
        """
        payload: Dict[str, Any] = {"epochs": [e.to_dict() for e in self.epochs]}
        if self.iterations is not None:
            payload["iterations"] = [it.to_dict() for it in self.iterations]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExecutionTrace":
        """Rebuild a trace from :meth:`to_dict` output."""
        trace = cls(epochs=[EpochEvent.from_dict(e) for e in payload.get("epochs", [])])
        if payload.get("iterations") is not None:
            trace.iterations = [IterationEvent.from_dict(it) for it in payload["iterations"]]
        return trace


__all__ = ["IterationEvent", "EpochEvent", "ExecutionTrace"]
