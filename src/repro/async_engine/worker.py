"""Simulated asynchronous worker.

A :class:`SimulatedWorker` owns one shard of the (re-ordered) dataset, its
local sampling distribution and a pre-generated sample sequence.  Every
epoch the engine takes the worker's scheduled samples and their step
re-weighting factors; the worker does not touch the shared model itself
— separating "what to compute" (worker) from "how asynchrony perturbs it"
(the simulator and shared model) keeps both testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.core.partition import WorkerShard
from repro.core.sampler import AliasSampler, SampleSequence
from repro.utils.rng import RandomState, as_rng


@dataclass
class SimulatedWorker:
    """One worker of the simulated asynchronous pool.

    Parameters
    ----------
    shard:
        The worker's data shard (global row indices, Lipschitz constants and
        local sampling probabilities).
    sequence:
        Pre-generated sample sequence of *local* indices into the shard.
    step_clip:
        Cap applied to the importance re-weighting factor ``1/(n_a p_i)``.
    seed:
        Seed for per-epoch sequence reshuffling.
    """

    shard: WorkerShard
    sequence: SampleSequence
    step_clip: float = 100.0
    seed: int = 0
    _position: int = field(default=0, init=False, repr=False)
    _epoch: int = field(default=0, init=False, repr=False)
    #: The shard's alias table, built once; every regenerated epoch draws
    #: from it (:func:`build_workers` hands over the one it built).
    _sampler: Optional[AliasSampler] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.sequence) == 0:
            raise ValueError("sample sequence must not be empty")
        self._rng = as_rng(self.seed)
        # Pre-compute the unbiased re-weighting factors 1 / (n_a * p_i) for
        # every local sample so the hot loop is a single indexed lookup.
        n_local = self.shard.size
        probs = self.shard.probabilities
        with np.errstate(divide="ignore"):
            weights = 1.0 / (n_local * probs)
        self._reweighting = np.minimum(weights, self.step_clip)

    # ------------------------------------------------------------------ #
    @property
    def worker_id(self) -> int:
        """Identifier of the worker (shard id)."""
        return self.shard.worker_id

    @property
    def iterations_per_epoch(self) -> int:
        """Number of iterations this worker performs per epoch."""
        return len(self.sequence)

    # ------------------------------------------------------------------ #
    def next_samples(self, count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Consume the next ``count`` samples of the epoch sequence at once.

        Returns ``(global_rows, local_rows, step_weights)`` as arrays; the
        epoch driver takes each worker's whole epoch in one slice.  Raises
        ``RuntimeError`` past the end of the sequence: callers must invoke
        :meth:`start_epoch` between epochs.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if self._position + count > len(self.sequence):
            raise RuntimeError(
                f"worker {self.worker_id} has {self.remaining_iterations()} iterations "
                f"left in its epoch sequence but {count} were requested; call start_epoch()"
            )
        local = np.asarray(
            self.sequence.indices[self._position : self._position + count], dtype=np.int64
        )
        self._position += count
        return self.shard.row_indices[local], local, self._reweighting[local]

    def start_epoch(self, *, reshuffle: bool = True, regenerate: bool = False,
                    sampler_seed: Optional[int] = None) -> None:
        """Reset the per-epoch cursor and refresh the sample sequence.

        Parameters
        ----------
        reshuffle:
            Permute the existing sequence (cheap; preserves empirical
            frequencies — the paper's recommended approximation).
        regenerate:
            Draw an entirely new i.i.d. sequence from the local distribution
            (the exact Algorithm 2/4 behaviour).  Takes precedence over
            ``reshuffle``.
        sampler_seed:
            Optional explicit seed for the regeneration draw.
        """
        self._epoch += 1
        self._position = 0
        if regenerate:
            seed = sampler_seed if sampler_seed is not None else int(self._rng.integers(0, 2**31 - 1))
            if self._sampler is None:
                self._sampler = AliasSampler(self.shard.probabilities)
            self.sequence = SampleSequence.generate(
                self.shard.probabilities, len(self.sequence), seed=seed, sampler=self._sampler
            )
        elif reshuffle:
            self.sequence = self.sequence.reshuffled(seed=int(self._rng.integers(0, 2**31 - 1)))

    def remaining_iterations(self) -> int:
        """Iterations left in the current epoch."""
        return len(self.sequence) - self._position


def build_workers(
    partition,
    iterations_per_worker: int,
    *,
    step_clip: float = 100.0,
    seed: RandomState = 0,
    importance_sampling: bool = True,
) -> list[SimulatedWorker]:
    """Construct one :class:`SimulatedWorker` per shard of a partition.

    Parameters
    ----------
    partition:
        A :class:`repro.core.partition.Partition`.
    iterations_per_worker:
        Length of each worker's per-epoch sample sequence (usually
        ``ceil(n / num_workers)``).
    importance_sampling:
        When False the sequences are drawn from the uniform distribution
        over the shard (plain ASGD) and the re-weighting factors collapse to
        1 exactly.
    """
    rng = as_rng(seed)
    workers = []
    for shard in partition.shards:
        if importance_sampling:
            probs = shard.probabilities
        else:
            probs = np.full(shard.size, 1.0 / shard.size)
        sampler = AliasSampler(probs)
        seq = SampleSequence.generate(
            probs, iterations_per_worker, seed=int(rng.integers(0, 2**31 - 1)), sampler=sampler
        )
        shard_for_worker = shard if importance_sampling else type(shard)(
            worker_id=shard.worker_id,
            row_indices=shard.row_indices,
            lipschitz=shard.lipschitz,
            probabilities=probs,
        )
        worker = SimulatedWorker(
            shard=shard_for_worker,
            sequence=seq,
            step_clip=step_clip,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        worker._sampler = sampler
        workers.append(worker)
    return workers


__all__ = ["SimulatedWorker", "build_workers"]
