#!/usr/bin/env python3
"""Train IS-ASGD on your own LibSVM-format data.

The paper's evaluation datasets are distributed in the LibSVM text format
(``label index:value index:value ...``); this example shows the exact code
path for running the solvers on a real file.  When no file is supplied it
writes a small demonstration file to a temporary directory, removed on
exit, so the example is runnable offline.

Run with::

    python examples/custom_libsvm_data.py [path/to/data.libsvm] [--workers 8]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro import ISASGDConfig, ISASGDSolver, Problem, load_dataset, make_objective
from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.experiments.report import format_table
from repro.sparse.io import save_libsvm


def _write_demo_file(path: Path, seed: int = 0) -> Path:
    """Create a small LibSVM file so the example runs without external data."""
    spec = SyntheticSpec(n_samples=500, n_features=2000, nnz_per_sample=12.0,
                         norm_spread=0.5, label_noise=0.05, name="demo")
    X, y, _ = make_sparse_classification(spec, seed=seed)
    save_libsvm(X, y, path)
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("data", nargs="?", default=None, help="path to a LibSVM file")
    parser.add_argument("--objective", default="logistic_l1",
                        help="objective name (see repro.objectives.available_objectives)")
    parser.add_argument("--regularization", type=float, default=1e-4)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--step-size", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        if args.data is None:
            data_path = _write_demo_file(Path(tmp) / "demo.libsvm", seed=args.seed)
            print(f"no file supplied; wrote a demo LibSVM file to {data_path}")
        else:
            data_path = Path(args.data)
        dataset = load_dataset(str(data_path))
    print(f"loaded {dataset.n_samples} samples x {dataset.n_features} features "
          f"({dataset.X.nnz} non-zeros)")

    objective = make_objective(args.objective, eta=args.regularization)
    problem = Problem(X=dataset.X, y=dataset.y, objective=objective, name=dataset.name)

    solver = ISASGDSolver(
        ISASGDConfig(step_size=args.step_size, epochs=args.epochs,
                     num_workers=args.workers, seed=args.seed)
    )
    result = solver.fit(problem)

    print(format_table(
        [{"epoch": e, "rmse": r, "error_rate": er, "wall_clock": t}
         for e, r, er, t in zip(result.curve.epochs, result.curve.rmse,
                                result.curve.error_rate, result.curve.wall_clock)],
        title=f"IS-ASGD on {dataset.name} ({args.workers} workers)",
    ))
    print("\nfinal model: best error rate "
          f"{result.best_error_rate:.4f}, final RMSE {result.final_rmse:.4f}")
    print("balancing decision:", result.info["balancing_decision"],
          "| psi:", round(result.info["psi"], 4), "| rho:", round(result.info["rho"], 6))


if __name__ == "__main__":
    main()
