"""Immutable scoring models loaded from stored run artifacts.

A :class:`ScoringModel` is the inference-side view of one trained
:class:`~repro.metrics.tracing.RunRecord`: the frozen weight vector, the
objective the run was trained under (rebuilt from the artifact identity),
and a pinned kernel backend.  All scoring routes through the kernel
registry's batch primitives (:meth:`~repro.objectives.base.Objective.batch_margins`
for resident matrices, :meth:`~repro.kernels.base.KernelBackend.segment_margins`
for gathered rows), so ``REPRO_KERNEL_BACKEND=native`` transparently
accelerates serving exactly like training.

Models are immutable: the weight array is marked read-only at construction
and nothing on the object is mutated after :meth:`ModelRef.swap
<repro.serving.swap.ModelRef.swap>` publishes it, which is what makes the
hot-swap protocol race-free — a reader that pinned a model reference can
keep scoring against it while a newer model is swapped in next to it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.kernels.base import KernelBackend
from repro.kernels.registry import resolve_backend
from repro.metrics.tracing import RunRecord
from repro.objectives.base import Objective
from repro.objectives.registry import make_objective
from repro.sparse.csr import CSRMatrix


class ScoringModel:
    """Frozen weights + objective + kernel backend = a servable model.

    Parameters
    ----------
    weights:
        The trained iterate (copied, cast to contiguous float64 and marked
        read-only); NaN or infinite weights raise :class:`ValueError`.
    objective:
        The objective the run was trained under; its ``predict_from_margins``
        / ``proba_from_margins`` hooks make prediction objective-aware.
    kernel:
        Kernel backend instance, registry name, or ``None`` for the
        process default.
    meta:
        Free-form provenance (dataset, solver, artifact key, ...).
    version:
        Monotonic identity assigned by :class:`~repro.serving.swap.ModelRef`
        when the model is published; responses carry it so clients (and the
        hot-swap atomicity tests) can tell which weights scored them.
    """

    def __init__(
        self,
        weights: np.ndarray,
        objective: Objective,
        *,
        kernel: Union[KernelBackend, str, None] = None,
        meta: Optional[Dict[str, Any]] = None,
        version: int = 0,
    ) -> None:
        w = np.ascontiguousarray(np.asarray(weights, dtype=np.float64)).copy()
        if w.ndim != 1:
            raise ValueError(f"weights must be a 1-D vector, got shape {w.shape}")
        if not np.isfinite(w).all():
            # A diverged run: serving it would answer NaN, which is not JSON.
            raise ValueError("weights must be finite (the run diverged)")
        w.setflags(write=False)
        self.weights = w
        self.objective = objective
        self.kernel = resolve_backend(kernel)
        self.meta: Dict[str, Any] = dict(meta or {})
        self.version = int(version)

    # ------------------------------------------------------------------ #
    # Construction from stored artifacts
    # ------------------------------------------------------------------ #
    @classmethod
    def from_record(
        cls,
        record: RunRecord,
        *,
        identity: Optional[Dict[str, Any]] = None,
        key: Optional[str] = None,
        kernel: Union[KernelBackend, str, None] = None,
    ) -> "ScoringModel":
        """Build a model from a re-hydrated record (+ its artifact identity)."""
        identity = identity or {}
        weights = record.info.get("weights")
        if weights is None:
            raise ValueError(
                f"artifact for {record.label} holds no trained weights "
                "(it predates the serving layer); re-train it, e.g. "
                "`python -m repro run ... --force`"
            )
        objective = make_objective(
            identity.get("objective", "logistic_l1"),
            eta=float(identity.get("regularization", 1e-4)),
        )
        meta = {
            "dataset": record.dataset,
            "solver": record.solver,
            "num_workers": record.num_workers,
            "epochs": identity.get("epochs", len(record.curve)),
            "seed": identity.get("seed"),
            "objective": identity.get("objective", "logistic_l1"),
            "regularization": float(identity.get("regularization", 1e-4)),
            "key": key,
        }
        return cls(np.asarray(weights, dtype=np.float64), objective, kernel=kernel, meta=meta)

    @classmethod
    def from_artifact(
        cls,
        store: "ArtifactStore",
        key: str,
        *,
        kernel: Union[KernelBackend, str, None] = None,
    ) -> "ScoringModel":
        """Load the artifact stored under ``key`` into a scoring model."""
        entry = store.load_entry(key)
        record = RunRecord.from_dict(entry["record"])
        return cls.from_record(
            record, identity=entry.get("identity") or {}, key=key, kernel=kernel
        )

    # ------------------------------------------------------------------ #
    # Scoring (every path dispatches through the kernel backend)
    # ------------------------------------------------------------------ #
    @property
    def n_features(self) -> int:
        """Dimensionality of the weight vector."""
        return int(self.weights.shape[0])

    @property
    def supports_proba(self) -> bool:
        """Whether :meth:`predict_proba` is meaningful for this objective."""
        return bool(self.objective.has_probabilities)

    def decision_function(
        self, X: CSRMatrix, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Margins ``<x_i, w>`` for ``rows`` of ``X`` (all rows when ``None``)."""
        return self.objective.batch_margins(self.weights, X, rows, kernel=self.kernel)

    def decision_function_gathered(
        self, idx: np.ndarray, val: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Margins of already-gathered rows (the micro-batcher's hot path).

        ``(idx, val, lengths)`` is the flat layout of
        :meth:`~repro.sparse.csr.CSRMatrix.gather_rows`; one call scores a
        whole coalesced batch through the kernel's segment reduction.
        """
        return self.kernel.segment_margins(idx, val, lengths, self.weights)

    def predict(self, X: CSRMatrix, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Class predictions in {-1, +1} (classification) or raw scores."""
        return self.objective.predict_from_margins(self.decision_function(X, rows))

    def predict_proba(self, X: CSRMatrix, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Positive-class probabilities (objectives with a probabilistic loss)."""
        return self.objective.proba_from_margins(self.decision_function(X, rows))

    def score_row(self, indices: np.ndarray, values: np.ndarray) -> float:
        """Margin of one sparse row (the unbatched single-query path)."""
        idx = np.ascontiguousarray(indices, dtype=np.int32)
        val = np.ascontiguousarray(values, dtype=np.float64)
        lengths = np.array([idx.size], dtype=np.int64)
        return float(self.kernel.segment_margins(idx, val, lengths, self.weights)[0])

    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, Any]:
        """Flat provenance row (CLI output, response headers)."""
        return {
            "version": self.version,
            "n_features": self.n_features,
            "objective": self.objective.name,
            "kernel_backend": self.kernel.name,
            "supports_proba": self.supports_proba,
            **{k: v for k, v in self.meta.items() if v is not None},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScoringModel(v{self.version}, d={self.n_features}, "
            f"objective={self.objective.name!r}, kernel={self.kernel.name!r})"
        )


#: The unsigned integer type of each signed index width (see
#: :func:`_normalise_query`).
_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _normalise_query(
    indices: Any, values: Any, n_features: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate one sparse query row into canonical ``(int32, float64)`` arrays.

    Every malformed row is a :class:`ValueError`: indices must be integers
    (``1.7`` names no feature) in ``[0, n_features)``, values finite numbers.
    Arrays that already have the canonical dtypes are returned uncopied.
    """
    idx = np.asarray(indices)
    val = np.asarray(values)
    if idx.ndim != 1 or val.ndim != 1 or idx.size != val.size:
        raise ValueError(
            f"query must be parallel 1-D indices/values arrays, "
            f"got shapes {idx.shape} and {val.shape}"
        )
    if idx.size == 0:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64)
    kind = idx.dtype.kind
    if kind not in "iu":
        raise ValueError(f"query indices must be integers, got {idx.dtype} values")
    # One reduction checks both ends of the range.  Viewed as unsigned of
    # the same width, a negative index reads at least 2**(bits - 1), and no
    # valid index of a signed type does; the bound is capped there because
    # int8/int16 -1 reads 255/65535, a valid feature of a wider model.
    unsigned, bound = idx, n_features
    if kind == "i":
        unsigned = idx.view(_UNSIGNED[idx.itemsize])
        bound = min(n_features, 1 << (8 * idx.itemsize - 1))
    if int(unsigned.max()) >= bound:
        raise ValueError(
            f"query indices out of range for a {n_features}-feature model"
        )
    if val.dtype.kind not in "iuf" or (
        val.dtype.kind == "f" and not np.isfinite(val).all()
    ):
        raise ValueError("query values must be finite numbers")
    return idx.astype(np.int32, copy=False), val.astype(np.float64, copy=False)


__all__ = ["ScoringModel"]
