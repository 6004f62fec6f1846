"""Mini-batch SGD with optional importance sampling.

The paper's related work cites importance sampling for mini-batches
(Csiba & Richtárik, 2016) as the natural companion of per-sample IS; this
solver provides the straightforward independent-sampling variant as an
extension of the reproduction:

* a batch ``B_t`` of ``batch_size`` indices is drawn i.i.d. from the sampling
  distribution (uniform, or the Eq.-12 Lipschitz distribution);
* the update averages the re-weighted per-sample gradients,

    w_{t+1} = w_t - (λ / |B_t|) Σ_{i ∈ B_t} (n p_i)^{-1} ∇f_i(w_t),

  which keeps the estimator unbiased for any sampling distribution and
  reduces its variance by a further factor ``1/|B_t|``.

The solver is serial; its purpose is to quantify how much of the IS gain
survives (or is amplified by) mini-batching, which the ablation benchmark
uses for the optional-extension experiment.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.importance import lipschitz_probabilities, stepsize_reweighting
from repro.core.sampler import AliasSampler
from repro.solvers.base import BaseSolver, EpochEngine, Problem
from repro.solvers.results import TrainResult
from repro.utils.rng import RandomState, as_rng


class MiniBatchSGDSolver(BaseSolver):
    """Serial mini-batch SGD with uniform or Lipschitz importance sampling.

    Parameters
    ----------
    batch_size:
        Number of samples drawn per update.
    importance_sampling:
        Draw batches from the Eq.-12 Lipschitz distribution (True) or
        uniformly (False).
    step_clip:
        Cap on the per-sample re-weighting factor ``1/(n p_i)``.
    """

    name = "minibatch_sgd"

    def __init__(
        self,
        *,
        step_size: float = 0.1,
        epochs: int = 10,
        batch_size: int = 16,
        importance_sampling: bool = True,
        step_clip: float = 100.0,
        seed: RandomState = 0,
        cost_model=None,
        record_every: int = 1,
        kernel=None,
    ) -> None:
        super().__init__(step_size=step_size, epochs=epochs, seed=seed,
                         cost_model=cost_model, record_every=record_every, kernel=kernel)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if step_clip <= 0:
            raise ValueError("step_clip must be positive")
        self.batch_size = int(batch_size)
        self.importance_sampling = bool(importance_sampling)
        self.step_clip = float(step_clip)

    def fit(self, problem: Problem, *, initial_weights: Optional[np.ndarray] = None) -> TrainResult:
        """Run ``epochs`` passes of mini-batch (IS-)SGD over ``problem``."""
        rng = as_rng(self.seed)
        X, y, obj = problem.X, problem.y, problem.objective
        n = problem.n_samples
        kernel = self.kernel
        engine = EpochEngine(problem, initial_weights)

        if self.importance_sampling:
            L = problem.lipschitz_constants()
            probs = lipschitz_probabilities(L)
            reweight = np.minimum(stepsize_reweighting(probs), self.step_clip)
        else:
            probs = np.full(n, 1.0 / n)
            reweight = np.ones(n)
        sampler = AliasSampler(probs, seed=int(rng.integers(0, 2**31 - 1)))

        batches_per_epoch = max(1, n // self.batch_size)
        lam = self.step_size
        row_nnz = np.diff(X.indptr)

        def epoch_body(epoch: int, event) -> None:
            w = engine.w
            total_nnz = 0
            for _ in range(batches_per_epoch):
                batch = sampler.sample(self.batch_size, rng=rng)
                # The averaged, re-weighted batch gradient in one batched
                # kernel call (gather → margins → coeffs → compress), applied
                # index-compressed: only the batch support is touched.
                cols, vals = kernel.batch_grad(
                    obj, X, batch, w, y, reweight[batch] / self.batch_size
                )
                if cols.size:
                    w[cols] -= lam * vals
                total_nnz += int(row_nnz[batch].sum())
            event.merge_bulk(
                iterations=batches_per_epoch,
                grad_nnz=total_nnz,
                sample_draws=batches_per_epoch,
            )

        recorder, on_epoch = self._recording(problem)
        engine.run(self.epochs, epoch_body, on_epoch)
        info = {
            "batch_size": self.batch_size,
            "importance_sampling": self.importance_sampling,
        }
        return self._finalize(recorder, engine.w, engine.trace,
                              include_sampling=self.importance_sampling, info=info)


__all__ = ["MiniBatchSGDSolver"]
