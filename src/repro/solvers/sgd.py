"""Serial stochastic gradient descent (the paper's SGD baseline).

Plain SGD with uniform sampling, Eq. 3:

    w_{t+1} = w_t - λ ∇f_{i_t}(w_t),      i_t ~ Uniform{1..n}.

Sampling is without replacement within each epoch (a fresh random
permutation per epoch), the standard practical variant.  The whole epoch is
handed to the kernel backend as one schedule block
(:meth:`~repro.solvers.base.EpochEngine.run_sample_block`): a single fused
C call on the ``native`` backend, the identical per-step loop elsewhere.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.solvers.base import BaseSolver, EpochEngine, Problem
from repro.solvers.results import TrainResult
from repro.utils.rng import as_rng


class SGDSolver(BaseSolver):
    """Serial uniform-sampling SGD."""

    name = "sgd"

    def fit(self, problem: Problem, *, initial_weights: Optional[np.ndarray] = None) -> TrainResult:
        """Run ``epochs`` passes of serial SGD over ``problem``."""
        rng = as_rng(self.seed)
        obj = problem.objective
        n = problem.n_samples
        kernel = self.kernel
        engine = EpochEngine(problem, initial_weights)
        lam = self.step_size

        def epoch_body(epoch: int, event) -> None:
            order = rng.permutation(n)
            total_nnz = engine.run_sample_block(kernel, obj, order, np.full(n, -lam))
            event.merge_bulk(iterations=n, grad_nnz=total_nnz)

        recorder, on_epoch = self._recording(problem)
        engine.run(self.epochs, epoch_body, on_epoch)
        return self._finalize(recorder, engine.w, engine.trace, include_sampling=False)


__all__ = ["SGDSolver"]
