"""Content-addressed artifact store for experiment runs.

Every executed :class:`~repro.experiments.configs.RunSpec` produces one
JSON artifact whose filename is the SHA-256 of the run's *identity* — the
complete set of inputs that determine the result: dataset, solver,
concurrency, step size, epochs, seed, solver kwargs, the resolved async
execution mode and kernel backend, and the evaluation objective.  Two
consequences:

* a sweep re-invoked after an interruption recognises every completed run
  by key and skips it (resume-for-free), and
* ``python -m repro report`` rebuilds the paper's figures and tables from
  disk without re-training anything.

Artifacts are written atomically (temp file + :func:`os.replace` in the
same directory), so a run killed mid-write never leaves a half-artifact
that would poison a later resume.  Format 2 stores a record's numeric
arrays (a trained model's weights) bit-exact as base64 under
``record["arrays"]``; format-1 artifacts, which hold them as JSON float
lists, still load.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.experiments.configs import RunSpec
from repro.metrics.tracing import RunRecord, _jsonable

#: On-disk artifact schema version (bump on incompatible layout changes).
FORMAT_VERSION = 2
#: Versions :meth:`ArtifactStore.load_entry` reads (format 1 is read-only).
_READABLE_VERSIONS = (1, FORMAT_VERSION)

from repro.solvers.registry import ASYNC_SOLVER_NAMES

#: Solvers that execute through the runtime layer and therefore depend on
#: the resolved ``async_mode`` (serial solvers ignore it).  Sourced from
#: the solver registry so a new async solver is never special-cased here.
ASYNC_SOLVERS = frozenset(ASYNC_SOLVER_NAMES)


def run_identity(
    spec: RunSpec,
    *,
    objective: str = "logistic_l1",
    regularization: float = 1e-4,
    cost_model: Optional["CostModel"] = None,
    dataset_seed: Optional[int] = None,
) -> Dict[str, Any]:
    """The complete, JSON-canonical identity of one run.

    The identity resolves every ambient default that influences the result:
    for async solvers the execution mode (explicit kwarg, else the
    default resolved by :mod:`repro.runtime`), for all
    solvers the kernel backend that actually runs (explicit kwarg, else the
    registry default; ``native`` records ``vectorized`` where the extension
    cannot be built), and the cost model pricing the simulated wall-clock
    axis.  A sweep started under ``REPRO_ASYNC_MODE=batched`` or with a
    calibrated cost model therefore does not collide with one under the
    defaults.  The ``async_mode``/``kernel`` kwargs are hoisted into their
    resolved top-level fields, so explicitly spelling a default hashes
    identically to omitting it.

    ``dataset_seed`` is the seed the dataset/problem is generated from —
    the runner uses its config-level seed for that, which may differ from
    ``spec.seed`` (the solver's RNG stream) on hand-built configs; it
    defaults to ``spec.seed``, matching :func:`~...runner.run_single`.
    """
    from dataclasses import asdict

    from repro.async_engine.cost_model import CostModel
    from repro.kernels.registry import resolve_backend
    from repro.runtime import default_async_mode, resolve_async_mode

    kwargs = dict(spec.kwargs())
    async_mode: Optional[str] = None
    if spec.solver in ASYNC_SOLVERS:
        explicit = kwargs.pop("async_mode", None)
        async_mode = resolve_async_mode(explicit) if explicit is not None else default_async_mode()
    kernel = kwargs.pop("kernel", None)
    if kernel is not None and not isinstance(kernel, str):
        raise ValueError(
            "artifact identities require the 'kernel' solver kwarg to be a registry "
            f"name, got {type(kernel).__name__}"
        )
    kernel = resolve_backend(kernel).name
    ok, canonical_kwargs = _jsonable(kwargs)
    if not ok:
        raise ValueError(
            f"solver kwargs for {spec.solver!r} on {spec.dataset!r} are not "
            "JSON-serializable; pass registry names instead of live objects"
        )
    params = (cost_model or CostModel()).params
    return {
        "dataset": spec.dataset,
        "solver": spec.solver,
        "num_workers": int(spec.num_workers),
        "step_size": float(spec.step_size),
        "epochs": int(spec.epochs),
        "seed": int(spec.seed),
        "dataset_seed": int(dataset_seed if dataset_seed is not None else spec.seed),
        "kwargs": canonical_kwargs,
        "async_mode": async_mode,
        "kernel": kernel,
        "objective": objective,
        "regularization": float(regularization),
        "cost_model": {k: float(v) for k, v in sorted(asdict(params).items())},
    }


def identity_key(identity: Dict[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of an identity."""
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def atomic_write_json(path: Union[str, Path], payload: Any, *, indent: int = 1) -> Path:
    """Write ``payload`` as JSON atomically (temp file + :func:`os.replace`).

    The write-then-rename idiom guarantees a reader never observes a
    half-written file: a process killed mid-write leaves only a dot-prefixed
    temp file behind, never a corrupt artifact that would poison a later
    resume.  Shared by the run artifacts below and the cluster tier's
    checkpoints (:mod:`repro.cluster.checkpoint`).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, indent=indent)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem[:12]}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def run_key(
    spec: RunSpec,
    *,
    objective: str = "logistic_l1",
    regularization: float = 1e-4,
    cost_model: Optional["CostModel"] = None,
    dataset_seed: Optional[int] = None,
) -> str:
    """The content-addressed key of one run spec."""
    return identity_key(
        run_identity(
            spec,
            objective=objective,
            regularization=regularization,
            cost_model=cost_model,
            dataset_seed=dataset_seed,
        )
    )


class ArtifactStore:
    """A directory of content-addressed run artifacts.

    Parameters
    ----------
    root:
        Directory holding the ``<key>.json`` artifacts; created lazily on
        the first :meth:`save`.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        # mtime-keyed caches: the index (key -> artifact file mtime_ns) is
        # valid as long as the directory mtime is unchanged — every write
        # goes through os.replace, which always modifies the directory —
        # and parsed entries are valid as long as their file mtime matches
        # the index.  Pollers (the serving hot-swap watcher, `repro report`
        # re-invocations in one process) therefore stop re-reading every
        # artifact JSON when nothing changed.
        self._index_cache: Optional[Tuple[int, Dict[str, int]]] = None
        self._entry_cache: Dict[str, Tuple[int, Dict[str, Any]]] = {}

    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Path:
        """The artifact path of ``key``."""
        return self.root / f"{key}.json"

    def contains(self, key: str) -> bool:
        """Whether a completed artifact exists for ``key``."""
        return self.path_for(key).is_file()

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def _dir_signature(self) -> Optional[int]:
        try:
            return self.root.stat().st_mtime_ns
        except OSError:
            return None

    def index(self) -> Dict[str, int]:
        """``{key: artifact mtime_ns}``, cached until the directory changes.

        Artifacts are only ever created/replaced via :func:`os.replace`
        into the store directory, and a rename always updates the directory
        mtime — so an unchanged directory mtime means an unchanged index.
        The returned mapping is the cache; treat it as read-only.
        """
        signature = self._dir_signature()
        if signature is None:
            self._index_cache = None
            return {}
        if self._index_cache is not None and self._index_cache[0] == signature:
            return self._index_cache[1]
        index: Dict[str, int] = {}
        for path in self.root.glob("*.json"):
            try:
                index[path.stem] = path.stat().st_mtime_ns
            except OSError:  # pragma: no cover - racing deletion
                continue
        self._index_cache = (signature, index)
        return index

    def keys(self) -> List[str]:
        """Keys of every stored artifact, sorted for determinism."""
        return sorted(self.index())

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------------ #
    def save(self, key: str, record: RunRecord, identity: Optional[Dict[str, Any]] = None) -> Path:
        """Persist ``record`` under ``key`` (atomic: temp file + rename)."""
        entry = {
            "format_version": FORMAT_VERSION,
            "key": key,
            "identity": identity,
            "record": record.to_dict(),
        }
        path = atomic_write_json(self.path_for(key), entry)
        # Drop caches for the written key rather than trusting the directory
        # mtime alone: on filesystems with coarse timestamp granularity two
        # writes can land in the same mtime tick.
        self._index_cache = None
        self._entry_cache.pop(key, None)
        return path

    def load_entry(self, key: str) -> Dict[str, Any]:
        """The full on-disk entry (format, identity and record payload).

        Parsed entries are cached per file mtime, so repeated loads of an
        unchanged artifact (index polling, report re-renders) parse the
        JSON once.  The returned dict is shared with the cache — treat it
        as read-only.
        """
        mtime = self.index().get(key)
        if mtime is not None:
            cached = self._entry_cache.get(key)
            if cached is not None and cached[0] == mtime:
                return cached[1]
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"artifact {path} is missing or corrupt: {exc}") from exc
        version = entry.get("format_version")
        if version not in _READABLE_VERSIONS:
            raise ValueError(
                f"artifact {path} has format_version {version!r}, "
                f"expected one of {_READABLE_VERSIONS}"
            )
        if mtime is not None:
            self._entry_cache[key] = (mtime, entry)
        return entry

    def load(self, key: str) -> RunRecord:
        """Rebuild the :class:`RunRecord` stored under ``key``."""
        return RunRecord.from_dict(self.load_entry(key)["record"])

    def entries(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Iterate ``(key, entry)`` over every artifact (sorted by key)."""
        for key in self.keys():
            yield key, self.load_entry(key)

    def records(self) -> List[RunRecord]:
        """Every stored record, sorted by key."""
        return [RunRecord.from_dict(entry["record"]) for _, entry in self.entries()]

    def summary_rows(self) -> List[Dict[str, Any]]:
        """One flat row per artifact (for ``python -m repro list --store``)."""
        rows: List[Dict[str, Any]] = []
        for key, entry in self.entries():
            identity = entry.get("identity") or {}
            record = entry.get("record", {})
            rows.append(
                {
                    "key": key[:12],
                    "dataset": identity.get("dataset", record.get("dataset", "?")),
                    "solver": identity.get("solver", record.get("solver", "?")),
                    "workers": identity.get("num_workers", record.get("num_workers", "?")),
                    "async_mode": identity.get("async_mode") or "-",
                    "epochs": identity.get("epochs", "?"),
                    "seed": identity.get("seed", "?"),
                }
            )
        return rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore({str(self.root)!r}, artifacts={len(self)})"


__all__ = [
    "FORMAT_VERSION",
    "ASYNC_SOLVERS",
    "ArtifactStore",
    "atomic_write_json",
    "identity_key",
    "run_identity",
    "run_key",
]
