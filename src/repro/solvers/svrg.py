"""Serial stochastic variance-reduced gradient (SVRG).

Johnson & Zhang's SVRG: once per epoch take a snapshot ``s = w`` and compute
the full gradient ``µ = ∇F(s)``; each inner iteration then uses the
variance-reduced gradient

    v_t = ∇f_i(w_t) - ∇f_i(s) + µ.

The two sparse terms share the support of ``x_i``, but ``µ`` is dense — the
per-iteration cost is therefore O(d) instead of O(nnz), which is the crux of
the paper's argument against SVRG-style acceleration for sparse problems.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.solvers.base import BaseSolver, EpochEngine, Problem
from repro.solvers.results import TrainResult
from repro.utils.rng import as_rng


class SVRGSolver(BaseSolver):
    """Serial SVRG with one snapshot per epoch.

    Parameters
    ----------
    skip_dense_term:
        When True the dense ``µ`` term is *not* added at every inner
        iteration but applied once at the end of the epoch scaled by the
        number of inner steps — the approximation used by the public
        SVRG-ASGD code the paper criticises (Section 1.2).  Kept as an
        ablation flag; the faithful algorithm is the default.
    """

    name = "svrg"

    def __init__(self, *, step_size: float = 0.1, epochs: int = 10, seed=0,
                 cost_model=None, record_every: int = 1, skip_dense_term: bool = False,
                 kernel=None) -> None:
        super().__init__(step_size=step_size, epochs=epochs, seed=seed,
                         cost_model=cost_model, record_every=record_every, kernel=kernel)
        self.skip_dense_term = bool(skip_dense_term)

    def fit(self, problem: Problem, *, initial_weights: Optional[np.ndarray] = None) -> TrainResult:
        """Run ``epochs`` outer SVRG epochs (each with ``n`` inner iterations)."""
        rng = as_rng(self.seed)
        X, y, obj = problem.X, problem.y, problem.objective
        n = problem.n_samples
        d = problem.n_features
        kernel = self.kernel
        engine = EpochEngine(problem, initial_weights)
        lam = self.step_size

        def epoch_body(epoch: int, event) -> None:
            w = engine.w
            # Snapshot and full gradient: one pass over all non-zeros plus a
            # dense reduction — accounted as one "iteration" with the full
            # nnz/dense cost so the cost model prices the epoch correctly.
            snapshot = w.copy()
            mu = kernel.full_gradient(obj, X, y, snapshot)
            event.merge_iteration(
                grad_nnz=X.nnz, dense_coords=d, conflicts=0, delay=0, drew_sample=False
            )

            order = rng.permutation(n)
            total_nnz = 0
            for row in order:
                row = int(row)
                y_i = float(y[row])
                x_idx, values_w = kernel.sample_grad(obj, X, row, w, y_i)
                _, values_s = kernel.sample_grad(obj, X, row, snapshot, y_i)
                sparse_part = values_w - values_s
                if not self.skip_dense_term:
                    # Faithful SVRG: the dense µ is added at every iteration.
                    w -= lam * mu
                if x_idx.size:
                    kernel.row_update(w, X, row, sparse_part, -lam)
                total_nnz += 2 * int(x_idx.size)
            event.merge_bulk(
                iterations=n,
                grad_nnz=total_nnz,
                dense_coords=0 if self.skip_dense_term else n * d,
            )
            if self.skip_dense_term:
                # Apply the accumulated dense correction once per epoch.
                w -= lam * n * mu
                event.merge_iteration(
                    grad_nnz=0, dense_coords=d, conflicts=0, delay=0, drew_sample=False
                )

        recorder, on_epoch = self._recording(problem)
        engine.run(self.epochs, epoch_body, on_epoch)
        return self._finalize(
            recorder,
            engine.w,
            engine.trace,
            include_sampling=False,
            info={"skip_dense_term": self.skip_dense_term},
        )


__all__ = ["SVRGSolver"]
