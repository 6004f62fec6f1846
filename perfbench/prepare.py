"""Per-seed input cache, built off the clock in a process of its own.

``<cache>/seed-<n>/`` holds:

* ``train.svm`` — the generated training set in LibSVM format;
* ``store/<key>.json`` — the model the serve workloads serve, trained by
  the program (IS-ASGD as in ``train-isasgd``) and saved through its
  ``ArtifactStore``; ``served_weights.npy`` keeps its weights for the check;
* ``staged/v<g>/<key>.json`` — the republished versions of that artifact
  (the trained weights with a seeded perturbation), saved the same way;
* ``ready.json`` — written last; its presence marks a complete cache.

Only the newest few seeds are kept.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np

from perfbench import inputs

#: Seeds kept in the cache (oldest removed first).
KEEP_SEEDS = 4


def seed_dir(cache: Path, seed: int) -> Path:
    return cache / f"seed-{int(seed)}"


def prepare(cache: Path, seed: int, serve: bool) -> None:
    """Build the seed's inputs (``serve``: also the served artifacts)."""
    from perfbench.workloads import HOT_VERSIONS, SERVED_SOLVER, solver_kwargs

    out = seed_dir(cache, seed)
    marker = out / "ready.json"
    meta = json.loads(marker.read_text()) if marker.is_file() else {}
    svm = out / "train.svm"
    if not meta:
        out.mkdir(parents=True, exist_ok=True)
        inputs.write_libsvm(inputs.make_training_set(seed), svm)
    if serve and "key" not in meta:
        meta["key"] = _train_served_model(out, svm, seed, solver_kwargs(SERVED_SOLVER), HOT_VERSIONS)
    marker.write_text(json.dumps(meta))
    os.utime(out)  # marks the seed as the newest for pruning
    _prune(cache, keep=out)


def _train_served_model(out: Path, svm: Path, seed: int, spec: dict, versions: int) -> str:
    from repro import Problem, load_dataset, make_solver
    from repro.experiments.store import ArtifactStore, identity_key
    from repro.metrics.tracing import RunRecord

    from perfbench.checks import OBJECTIVE
    from perfbench.workloads import objective

    ds = load_dataset(str(svm))
    problem = Problem(X=ds.X, y=ds.y, objective=objective())
    result = make_solver("is_asgd", seed=seed, **spec).fit(problem)
    identity = {
        "dataset": svm.name, "solver": "is_asgd", "objective": OBJECTIVE[0],
        "regularization": OBJECTIVE[1], "epochs": spec["epochs"], "seed": seed,
    }
    key = identity_key(identity)
    np.save(out / "served_weights.npy", result.weights)

    def save(root: Path, weights: np.ndarray) -> None:
        record = RunRecord(solver="is_asgd", dataset=svm.name, num_workers=spec["num_workers"],
                           curve=result.curve, trace=result.trace, info={"weights": weights})
        ArtifactStore(root).save(key, record, identity)

    save(out / "store", result.weights)
    for version, weights in enumerate(inputs.republished_weights(seed, result.weights, versions), 1):
        save(out / "staged" / f"v{version}", weights)
    return key


def _prune(cache: Path, keep: Path) -> None:
    seeds = sorted(cache.glob("seed-*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in seeds[KEEP_SEEDS:]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)
