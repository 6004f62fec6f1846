"""SAGA (Defazio et al. 2014), the other VR baseline the paper cites.

SAGA keeps a table of the most recent gradient of every sample and updates

    w_{t+1} = w_t - λ [ ∇f_i(w_t) - g_i + ḡ ]

where ``g_i`` is the stored gradient of sample ``i`` and ``ḡ`` their
average.  For linear models the stored gradient of a sample is a scalar
multiple of ``x_i``, so the table costs O(n) memory, but the running
average ``ḡ`` is dense — SAGA therefore suffers exactly the same dense-
update penalty as SVRG on sparse data, which is why the paper lumps the two
together as "SVRG-styled" VR.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.solvers.base import BaseSolver, EpochEngine, Problem
from repro.solvers.results import TrainResult
from repro.utils.rng import as_rng


class SAGASolver(BaseSolver):
    """Serial SAGA with the scalar-coefficient gradient table."""

    name = "saga"

    def fit(self, problem: Problem, *, initial_weights: Optional[np.ndarray] = None) -> TrainResult:
        """Run ``epochs`` passes of SAGA."""
        rng = as_rng(self.seed)
        X, y, obj = problem.X, problem.y, problem.objective
        n, d = problem.n_samples, problem.n_features
        kernel = self.kernel
        engine = EpochEngine(problem, initial_weights)

        # Stored loss-derivative coefficient per sample (gradient = coef * x_i
        # + regulariser); initialised at the starting iterate's coefficients.
        # Both the table and its running average are batched kernel calls.
        coefs = kernel.grad_coeffs(obj, X, y, engine.w)
        avg_grad = kernel.accumulate_rows(
            X, np.arange(n), coefs / n, np.zeros(d, dtype=np.float64)
        )
        lam = self.step_size

        def epoch_body(epoch: int, event) -> None:
            w = engine.w
            if epoch == 0:
                # Fold the table-initialisation cost into the first epoch.
                event.merge_iteration(grad_nnz=X.nnz, dense_coords=d, conflicts=0, delay=0,
                                      drew_sample=False)
            order = rng.permutation(n)
            total_nnz = 0
            for row in order:
                row = int(row)
                x_idx, x_val = kernel.row(X, row)
                margin = kernel.row_margin(X, row, w)
                new_coef = obj._loss_derivative(margin, float(y[row]))
                old_coef = coefs[row]

                # Dense part: the running average gradient (plus regulariser).
                reg_grad = obj.regularizer.grad_dense(w)
                w -= lam * (avg_grad + reg_grad)
                # Sparse part: (new - old) * x_i on the support.
                if x_idx.size:
                    delta = (new_coef - old_coef) * x_val
                    kernel.row_update(w, X, row, delta, -lam)
                    # Maintain the running average and the table.
                    kernel.row_update(avg_grad, X, row, delta / n, 1.0)
                coefs[row] = new_coef
                total_nnz += 2 * int(x_idx.size)
            event.merge_bulk(iterations=n, grad_nnz=total_nnz, dense_coords=2 * d * n)

        recorder, on_epoch = self._recording(problem)
        engine.run(self.epochs, epoch_body, on_epoch)
        return self._finalize(recorder, engine.w, engine.trace, include_sampling=False)


__all__ = ["SAGASolver"]
