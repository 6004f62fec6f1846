"""Atomic hot-swap of scoring models.

Two pieces:

* :class:`ModelRef` — a thread-safe publication point.  Readers call
  :meth:`ModelRef.get` once per *batch* and score the whole batch against
  that pinned model, so a concurrent :meth:`ModelRef.swap` can never yield
  a mixed-weight response: every response is produced by exactly one
  published model version (models themselves are immutable, see
  :mod:`repro.serving.model`).

* :class:`ArtifactWatcher` — a polling thread that watches an
  :class:`~repro.experiments.store.ArtifactStore` for a newer artifact of
  the served run identity and swaps it in.  Polling is cheap because it
  rides the store's mtime-keyed :meth:`~repro.experiments.store.ArtifactStore.index`
  cache — an unchanged store costs one ``stat`` per poll, not one JSON
  parse per artifact.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.experiments.store import ArtifactStore
from repro.serving.model import ScoringModel
from repro.utils.logging import get_logger

LOGGER = get_logger("serving.swap")


class ModelRef:
    """Thread-safe, atomically swappable reference to the current model.

    Swapping assigns a strictly increasing version number to the incoming
    model; readers pin one model per batch via :meth:`get` and report that
    version with every response.
    """

    def __init__(self, model: Optional[ScoringModel] = None) -> None:
        self._lock = threading.Lock()
        self._model: Optional[ScoringModel] = None
        self._version = 0
        self.swaps = 0
        if model is not None:
            self.swap(model)
            self.swaps = 0  # the initial publication is not a "swap"

    def get(self) -> ScoringModel:
        """The currently published model (raises before the first swap).

        One attribute read, so it takes no lock: :meth:`swap` sets the
        model's version before it publishes the reference.
        """
        model = self._model
        if model is None:
            raise LookupError("no model has been published to this ModelRef yet")
        return model

    @property
    def version(self) -> int:
        """Version of the currently published model (0 = none yet)."""
        with self._lock:
            return self._version

    def swap(self, model: ScoringModel) -> int:
        """Atomically publish ``model``; returns its assigned version.

        The model's ``version`` attribute is set *before* the reference is
        flipped, so no reader can ever observe the new model under the old
        version number.  A model of a different width than the published
        one is rejected with :class:`ValueError`: queries are validated
        against the model live at submit time but scored against the one
        live when their batch runs, so a narrower model would be indexed
        past its weights.
        """
        with self._lock:
            if self._model is not None and model.n_features != self._model.n_features:
                raise ValueError(
                    f"cannot swap a {model.n_features}-feature model in for the "
                    f"published {self._model.n_features}-feature model"
                )
            self._version += 1
            model.version = self._version
            self._model = model
            self.swaps += 1
            return self._version


class ArtifactWatcher:
    """Poll a store for newer artifacts of the served identity and hot-swap.

    Parameters
    ----------
    store:
        The artifact store to watch.
    ref:
        Where newly loaded models are published.
    key:
        Watch exactly this artifact key (a re-trained run rewrites the same
        content-addressed file; the watcher reloads on mtime change).
    dataset / solver:
        Alternatively, watch every artifact whose identity matches these
        filters and serve the newest one (by file mtime) — "a newer
        artifact for the same run identity appears" covers both a rewrite
        of the same key and a fresh run (more epochs, new seed) landing
        next to it.
    kernel:
        Kernel backend for loaded models (name/instance/None).
    poll_interval:
        Seconds between polls of the background thread.
    on_swap:
        Optional callback ``(model) -> None`` invoked after each swap.
    """

    def __init__(
        self,
        store: Union[ArtifactStore, str],
        ref: ModelRef,
        *,
        key: Optional[str] = None,
        dataset: Optional[str] = None,
        solver: Optional[str] = None,
        kernel=None,
        poll_interval: float = 0.5,
        on_swap: Optional[Callable[[ScoringModel], None]] = None,
    ) -> None:
        if key is None and dataset is None and solver is None:
            raise ValueError("watch needs a key, or dataset/solver identity filters")
        self.store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        self.ref = ref
        self.key = key
        self.dataset = dataset
        self.solver = solver
        self.kernel = kernel
        self.poll_interval = float(poll_interval)
        self.on_swap = on_swap
        self._current: Optional[Tuple[str, int]] = None  # (key, mtime_ns) served
        # Serialises polls: the poll thread and load_initial() must not both
        # load and swap in the same artifact.
        self._poll_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    def _matches(self, key: str) -> bool:
        if self.key is not None:
            return key == self.key
        try:
            identity = self.store.load_entry(key).get("identity") or {}
        except ValueError:
            return False  # half-written/corrupt artifacts never match
        if self.dataset is not None and identity.get("dataset") != self.dataset:
            return False
        if self.solver is not None and identity.get("solver") != self.solver:
            return False
        return True

    def _candidate(self) -> Optional[Tuple[str, int]]:
        """Newest matching ``(key, mtime_ns)``, or None when nothing matches."""
        index = self.store.index()
        matching = [(mtime, key) for key, mtime in index.items() if self._matches(key)]
        if not matching:
            return None
        mtime, key = max(matching)
        return key, mtime

    def poll_once(self) -> Optional[ScoringModel]:
        """One poll: swap and return the new model if a newer artifact exists.

        One lock spans the candidate check, the load and the swap, so a
        concurrent poll waits and then finds the artifact already served.
        """
        with self._poll_lock:
            candidate = self._candidate()
            if candidate is None or candidate == self._current:
                return None
            key, mtime = candidate
            try:
                model = ScoringModel.from_artifact(self.store, key, kernel=self.kernel)
                version = self.ref.swap(model)
            except ValueError as exc:
                # Unservable artifact (no weights / corrupt / non-finite
                # weights / a different model width): remember it so the poll
                # loop does not retry-log forever, keep serving the old one.
                LOGGER.warning("ignoring unservable artifact %s: %s", key[:12], exc)
                self._current = candidate
                return None
            self._current = candidate
            LOGGER.info("hot-swapped artifact %s as model version %d", key[:12], version)
            if self.on_swap is not None:
                self.on_swap(model)
            return model

    def load_initial(self) -> ScoringModel:
        """Blocking first load (raises when no matching artifact exists)."""
        model = self.poll_once()
        if model is None and self._current is None:
            raise LookupError(
                f"no artifact matching key={self.key!r} dataset={self.dataset!r} "
                f"solver={self.solver!r} in {self.store.root}"
            )
        if model is None:
            return self.ref.get()
        return model

    # ------------------------------------------------------------------ #
    def start(self) -> "ArtifactWatcher":
        """Start the background polling thread (daemon)."""
        if self._thread is not None:
            raise RuntimeError("watcher already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-artifact-watcher", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.poll_once()
            except Exception:  # pragma: no cover - keep serving on poll errors
                LOGGER.exception("artifact watcher poll failed")

    def stop(self) -> None:
        """Stop and join the polling thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "ArtifactWatcher":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()


__all__ = ["ArtifactWatcher", "ModelRef"]
