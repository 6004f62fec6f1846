"""Micro-batching request queue over the kernel registry's batch primitives.

Single-row queries are cheap to *answer* but expensive to answer *one at a
time*: every request pays a full Python/kernel-call round trip for one
sparse dot product.  The :class:`MicroBatcher` coalesces concurrently
submitted queries into one flat gathered-rows batch and scores the whole
batch with a single
:meth:`~repro.kernels.base.KernelBackend.segment_margins` call — the same
primitive the training tiers batch with — amortising the per-call overhead
over up to ``max_batch`` requests (``BENCH_serving.json`` gates the
resulting throughput at ≥ 5x the one-query-at-a-time loop).  Predictions
and probabilities are derived for the whole batch too, one objective call
each.

One scoring thread drains the queue, and there is no result cache: extra
scoring threads only contended for the GIL (8 gave less throughput than
1), and a cache's per-request hashing and locking cost more than the
kernel work it skipped, even when most queries repeat a recent row.

The hand-off is cheap per request for the same reason.  ``submit`` checks
a row once and wakes the scoring thread only when it is waiting; a busy
scorer takes the queue when it next looks.  A :class:`PendingResult` is a
slot: the scorer fills every slot of a batch, stamps them with one
completion time and wakes the waiting clients with one ``notify_all``.

Swap-consistency contract: the scoring thread pins *one* model reference
per batch (:meth:`~repro.serving.swap.ModelRef.get`) and scores every
request of the batch against it, so a concurrent hot swap never produces a
mixed-weight response; each response names the model version that
produced it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.serving.model import ScoringModel, _normalise_query
from repro.serving.swap import ModelRef


class PendingResult:
    """A submitted query's future response (wait with :meth:`result`).

    The queued query's slot: it carries the validated row to the scoring
    thread, which fills it with a value or an error.  A client that has to
    wait does so on the batcher's completion condition ``done``, which the
    scorer signals once per batch.
    """

    __slots__ = ("_done", "_idx", "_val", "_value", "_error", "submitted_at", "completed_at")

    def __init__(self, done: threading.Condition, idx: np.ndarray, val: np.ndarray) -> None:
        self._done = done
        self._idx = idx
        self._val = val
        self._value: Optional[Dict[str, Any]] = None
        self._error: Optional[BaseException] = None
        self.submitted_at = time.perf_counter()
        self.completed_at: Optional[float] = None

    def done(self) -> bool:
        """Whether the response is available."""
        return self.completed_at is not None

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the response arrives and return it (re-raising errors)."""
        if self.completed_at is None:
            with self._done:
                if not self._done.wait_for(self.done, timeout):
                    raise TimeoutError("query was not answered within the timeout")
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    @property
    def latency(self) -> Optional[float]:
        """Seconds from submit to completion (None while pending)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class MicroBatcher:
    """Coalesce single-row queries into batched kernel calls.

    Parameters
    ----------
    model:
        A :class:`~repro.serving.swap.ModelRef` (hot-swappable) or a bare
        :class:`~repro.serving.model.ScoringModel` (wrapped into a private
        ref).
    max_batch:
        Largest number of queries scored per kernel call.
    max_delay_us:
        How long the scoring thread waits for more queries to coalesce
        after picking up the first one (microseconds; 0 scores whatever is
        queued immediately).
    include_proba:
        Attach ``"proba"`` to responses when the objective defines
        probabilities.
    """

    def __init__(
        self,
        model: Union[ModelRef, ScoringModel],
        *,
        max_batch: int = 64,
        max_delay_us: float = 200.0,
        include_proba: bool = False,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.ref = model if isinstance(model, ModelRef) else ModelRef(model)
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay_us) * 1e-6
        self.include_proba = bool(include_proba)

        # ``_cond`` guards the queue, the closing and idle flags and every
        # counter; ``_done`` is where clients wait for their batch.
        self._queue: Deque[PendingResult] = deque()
        self._cond = threading.Condition()
        self._done = threading.Condition()
        self._closing = False
        self._idle = False  # the scorer is waiting on ``_cond``
        self._submitted = 0
        self._answered = 0
        self._batches = 0
        self._largest_batch = 0
        self._thread = threading.Thread(
            target=self._scoring_loop, name="repro-serving-scorer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def submit(self, indices: Sequence[int], values: Sequence[float]) -> PendingResult:
        """Enqueue one sparse query row; returns its :class:`PendingResult`.

        A malformed row raises :class:`ValueError` here, before it is queued.
        Arrays that already are int32 indices and float64 values are queued
        without a copy, so leave them unmodified until the response arrives.
        """
        # Validated against the *current* feature space.
        idx, val = _normalise_query(indices, values, self.ref.get().n_features)
        pending = PendingResult(self._done, idx, val)
        with self._cond:
            if self._closing:
                raise RuntimeError("batcher is closed")
            self._queue.append(pending)
            self._submitted += 1
            if self._idle:  # a busy scorer takes the queue when it next looks
                self._cond.notify()
        return pending

    def score(
        self, indices: Sequence[int], values: Sequence[float], timeout: Optional[float] = 30.0
    ) -> Dict[str, Any]:
        """Submit one query and block for its response."""
        return self.submit(indices, values).result(timeout)

    # ------------------------------------------------------------------ #
    # Scoring side
    # ------------------------------------------------------------------ #
    def _take_batch(self) -> Optional[List[PendingResult]]:
        """Block for the next batch (None when closing and drained)."""
        with self._cond:
            while not self._queue:
                if self._closing:
                    return None
                self._idle = True
                self._cond.wait()
                self._idle = False
            batch = [self._queue.popleft()]
            while self._queue and len(batch) < self.max_batch:
                batch.append(self._queue.popleft())
            if len(batch) >= self.max_batch or self.max_delay <= 0.0 or self._closing:
                return batch
            # Coalescing window: wait (briefly) for more arrivals so bursty
            # single-row traffic still forms real batches.
            deadline = time.perf_counter() + self.max_delay
            while len(batch) < self.max_batch and not self._closing:
                remaining = deadline - time.perf_counter()
                if remaining <= 0.0:
                    break
                self._idle = True
                self._cond.wait(remaining)
                self._idle = False
                while self._queue and len(batch) < self.max_batch:
                    batch.append(self._queue.popleft())
            return batch

    def _scoring_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            try:
                self._score_batch(batch)
            except Exception as exc:  # fail the batch, keep the scorer alive
                for pending in batch:
                    pending._value, pending._error = None, exc
                self._complete(batch)

    def _score_batch(self, batch: List[PendingResult]) -> None:
        # Pin exactly one model for the whole batch: the swap-atomicity
        # contract (no mixed-weight responses) lives on this line.
        model = self.ref.get()
        lengths = np.fromiter(
            (pending._idx.size for pending in batch), dtype=np.int64, count=len(batch)
        )
        margins = model.decision_function_gathered(
            np.concatenate([pending._idx for pending in batch]),
            np.concatenate([pending._val for pending in batch]),
            lengths,
        )
        predictions = model.objective.predict_from_margins(margins).tolist()
        probas = None
        if self.include_proba and model.supports_proba:
            probas = model.objective.proba_from_margins(margins).tolist()

        # Count the batch before answering it, so a client that has its
        # response also sees it in stats().
        with self._cond:
            self._batches += 1
            self._largest_batch = max(self._largest_batch, len(batch))
            self._answered += len(batch)
        for k, (margin, pending) in enumerate(zip(margins.tolist(), batch)):
            response = {
                "margin": margin,
                "prediction": predictions[k],
                "model_version": model.version,
            }
            if probas is not None:
                response["proba"] = probas[k]
            pending._value = response
        self._complete(batch)

    def _complete(self, batch: List[PendingResult]) -> None:
        """Stamp a batch's filled slots with one completion time; wake its clients once."""
        completed_at = time.perf_counter()
        for pending in batch:
            pending.completed_at = completed_at
        with self._done:
            self._done.notify_all()

    # ------------------------------------------------------------------ #
    # Lifecycle + stats
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop accepting queries, drain the queue, join the scoring thread."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        self._thread.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def stats(self) -> Dict[str, Any]:
        """Counters since construction (submitted/answered/batches/swaps)."""
        with self._cond:
            return {
                "max_batch": self.max_batch,
                "submitted": self._submitted,
                "answered": self._answered,
                "batches": self._batches,
                "largest_batch": self._largest_batch,
                "mean_batch": (self._answered / self._batches) if self._batches else 0.0,
                "model_swaps": self.ref.swaps,
            }


__all__ = ["MicroBatcher", "PendingResult"]
