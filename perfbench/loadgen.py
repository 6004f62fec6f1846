"""Load generation for the serve workloads (one thread, in the caller's process).

Two phases drive a server object exposing ``submit(indices, values)``:

* :func:`open_loop` sends on a seeded Poisson schedule at a fixed rate,
  whatever the server does, and times each request from when it was *due*
  to be sent, so a stall is charged to every request it delays;
* :func:`closed_loop` keeps a fixed window of requests outstanding and
  measures how many responses per second the server completes.

Each request's future is dropped as soon as its response is read; the
per-request outcome is kept in flat numpy arrays (:class:`Outcomes`), which
the output check reads afterwards.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: A response later than this after its due time counts as failed.
REQUEST_TIMEOUT_S = 2.0


@dataclass
class Outcomes:
    """Per-request results of one phase, in submission order."""

    rows: np.ndarray        # query-stream row of each request
    due: np.ndarray         # when it was due (perf_counter seconds)
    late: np.ndarray        # sent minus due, seconds
    submitted: np.ndarray   # the server's submit stamp
    completed: np.ndarray   # the server's completion stamp (nan: none)
    margin: np.ndarray      # the response's margin (nan: none)
    version: np.ndarray     # the model version the response names (-1: none)
    sent: int = 0

    @classmethod
    def empty(cls, size: int) -> "Outcomes":
        nan = np.full(size, np.nan)
        return cls(
            rows=np.zeros(size, np.int64), due=nan.copy(), late=nan.copy(),
            submitted=nan.copy(), completed=nan.copy(), margin=nan.copy(),
            version=np.full(size, -1, np.int64),
        )

    def trim(self) -> "Outcomes":
        """Drop the preallocated slots that were never sent."""
        n = self.sent
        return Outcomes(
            self.rows[:n], self.due[:n], self.late[:n], self.submitted[:n],
            self.completed[:n], self.margin[:n], self.version[:n], n,
        )

    def latency(self) -> np.ndarray:
        """Completion minus due time, seconds (nan for unanswered requests)."""
        return self.completed - self.due


def _read(out: Outcomes, k: int, pending, timeout: float) -> None:
    """Record request ``k``'s response into ``out`` (the future is then dropped)."""
    try:
        response = pending.result(timeout=max(timeout, 0.0))
    except Exception:  # noqa: BLE001 - late or failed: left unanswered, so it fails the check
        return
    out.submitted[k] = pending.submitted_at
    out.completed[k] = pending.completed_at
    out.margin[k] = response["margin"]
    out.version[k] = response["model_version"]


def _drain(out: Outcomes, outstanding: deque, wait: bool) -> None:
    """Read finished futures from the head; with ``wait``, read them all."""
    while outstanding and (wait or outstanding[0][1].done()):
        k, pending = outstanding.popleft()
        _read(out, k, pending, out.due[k] + REQUEST_TIMEOUT_S - time.perf_counter())


def open_loop(
    server,
    queries,
    rows: np.ndarray,
    rate: float,
    seed: int,
    tick: Optional[Callable[[float], None]] = None,
) -> Outcomes:
    """Send ``rows`` on a Poisson schedule at ``rate`` requests per second."""
    gaps = np.random.default_rng([int(seed), 4]).exponential(1.0 / rate, size=rows.size)
    out = Outcomes.empty(rows.size)
    out.rows[:] = rows
    outstanding: deque = deque()
    start = time.perf_counter() + 0.01
    out.due[:] = start + np.cumsum(gaps)
    for k in range(rows.size):
        due = out.due[k]
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
            now = time.perf_counter()
        if tick is not None:
            tick(now)
        out.late[k] = now - due
        idx, val = queries.row(int(rows[k]))
        try:
            outstanding.append((k, server.submit(idx, val)))
        except Exception:  # noqa: BLE001 - a refused request is left unanswered
            pass
        out.sent = k + 1
        _drain(out, outstanding, wait=False)
    _drain(out, outstanding, wait=True)
    return out


def closed_loop(
    server,
    queries,
    rows: np.ndarray,
    window: int,
    seconds: float,
    tick: Optional[Callable[[float], None]] = None,
) -> Outcomes:
    """Keep ``window`` requests outstanding for ``seconds`` or until ``rows`` run out."""
    out = Outcomes.empty(rows.size)
    out.rows[:] = rows
    outstanding: deque = deque()
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while k < rows.size:
        now = time.perf_counter()
        if now >= deadline:
            break
        if tick is not None:
            tick(now)
        if len(outstanding) >= window:
            head_k, head = outstanding.popleft()
            _read(out, head_k, head, out.due[head_k] + REQUEST_TIMEOUT_S - now)
            continue
        idx, val = queries.row(int(rows[k]))
        out.due[k] = now
        out.late[k] = 0.0
        try:
            outstanding.append((k, server.submit(idx, val)))
        except Exception:  # noqa: BLE001 - a refused request is left unanswered
            pass
        k += 1
        out.sent = k
    _drain(out, outstanding, wait=True)
    return out
