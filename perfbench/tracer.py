"""Spans and counters around the program's public functions.

The traced run installs wrappers, from the benchmark's side only, around
the functions at each layer boundary (``repro.sparse``, ``repro.kernels``,
``repro.serving``, ...) and restores the originals afterwards; the
program's source is untouched.  A span records its duration and how much
of it its child spans (nested calls on the same thread) covered, so each
layer gets both busy time and self time.  Spans are folded into per-name
aggregates as they close: calls, busy seconds, child seconds, plus any
work counters (rows, entries) the span reports.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``count(args, kwargs) -> {counter: amount}`` for a wrapped call.
Counter = Callable[[tuple, dict], Dict[str, int]]
#: ``observe(args, kwargs, result, started, ended)`` after a wrapped call.
Observer = Callable[[tuple, dict, Any, float, float], None]


class _ThreadAggregate:
    """One thread's aggregates (merged when the tracer is read)."""

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, int] = defaultdict(int)


class Tracer:
    """Wraps callables with spans, patches them into the program, and restores them."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._threads: List[_ThreadAggregate] = []
        self._threads_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        # Forked cluster workers inherit the patches; their spans would be
        # lost with the process, so they run untraced.
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------ #
    def _aggregate(self) -> _ThreadAggregate:
        agg = getattr(self._local, "agg", None)
        if agg is None:
            agg = self._local.agg = _ThreadAggregate()
            with self._threads_lock:
                self._threads.append(agg)
        return agg

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Counter] = None,
        observe: Optional[Observer] = None,
    ) -> Callable:
        """``fn`` timed as span ``name`` whenever the tracer is enabled."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            agg = tracer._aggregate()
            frame = [0.0]
            agg.stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                agg.stack.pop()
                busy = ended - started
                if agg.stack:
                    agg.stack[-1][0] += busy
                record = agg.spans[name]
                record[0] += 1
                record[1] += busy
                record[2] += frame[0]
            if count is not None:
                for key, amount in count(args, kwargs).items():
                    agg.counters[f"{name}.{key}"] += int(amount)
            if observe is not None:
                observe(args, kwargs, result, started, ended)
            return result

        return traced

    # ------------------------------------------------------------------ #
    def patch_method(
        self, cls: type, attr: str, name: str, count: Optional[Counter] = None,
        observe: Optional[Observer] = None,
    ) -> None:
        """Trace ``cls.attr`` on the class of ``cls``'s MRO that defines it.

        Plain methods and classmethods are handled; the defining class is
        patched so every subclass that inherits the method goes through
        the span.
        """
        owner = next(k for k in cls.__mro__ if attr in vars(k))
        original = vars(owner)[attr]
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        if isinstance(original, classmethod):
            patched: Any = classmethod(self.wrap(name, original.__func__, count, observe))
        else:
            patched = self.wrap(name, original, count, observe)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, patched)

    def patch_function(
        self, fn: Callable, name: str, count: Optional[Counter] = None,
        observe: Optional[Observer] = None,
    ) -> None:
        """Trace module-level ``fn`` under every name the ``repro`` modules bind it to.

        ``from module import fn`` copies the reference into the importing
        module, so each such binding is patched.
        """
        traced = self.wrap(name, fn, count, observe)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, traced)

    def restore(self) -> None:
        """Undo every patch (the program runs exactly as untraced)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Forget everything recorded so far (patches stay installed)."""
        with self._threads_lock:
            for agg in self._threads:
                agg.spans.clear()
                agg.counters.clear()

    def spans(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "busy_s", "self_s"}}`` merged over threads."""
        merged: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        with self._threads_lock:
            for agg in self._threads:
                for name, (calls, busy, child) in list(agg.spans.items()):
                    out = merged[name]
                    out[0] += calls
                    out[1] += busy
                    out[2] += child
        return {
            name: {"calls": int(c), "busy_s": b, "self_s": b - ch}
            for name, (c, b, ch) in merged.items()
        }

    def counters(self) -> Dict[str, int]:
        """Work counters merged over threads."""
        merged: Dict[str, int] = defaultdict(int)
        with self._threads_lock:
            for agg in self._threads:
                for key, value in list(agg.counters.items()):
                    merged[key] += value
        return dict(merged)
