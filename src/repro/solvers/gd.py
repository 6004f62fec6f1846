"""Full-batch gradient descent.

Included as a deterministic reference solver: it is what SVRG's full
gradient snapshot computes once per epoch, and the test-suite uses it to
obtain near-optimal objective values that the stochastic solvers should
approach.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.solvers.base import BaseSolver, EpochEngine, Problem
from repro.solvers.results import TrainResult


class GradientDescentSolver(BaseSolver):
    """Deterministic full-gradient descent with optional simple backtracking."""

    name = "gd"

    def __init__(self, *, step_size: float = 0.5, epochs: int = 50, seed=0,
                 cost_model=None, record_every: int = 1, backtracking: bool = True,
                 kernel=None) -> None:
        super().__init__(step_size=step_size, epochs=epochs, seed=seed,
                         cost_model=cost_model, record_every=record_every, kernel=kernel)
        self.backtracking = bool(backtracking)

    def fit(self, problem: Problem, *, initial_weights: Optional[np.ndarray] = None) -> TrainResult:
        """Run ``epochs`` full-gradient steps."""
        X, y, obj = problem.X, problem.y, problem.objective
        kernel = self.kernel
        engine = EpochEngine(problem, initial_weights)
        state = {"step": self.step_size, "prev_loss": kernel.full_loss(obj, X, y, engine.w)}

        def epoch_body(epoch: int, event) -> None:
            w = engine.w
            step = state["step"]
            grad = kernel.full_gradient(obj, X, y, w)
            candidate = w - step * grad
            loss = kernel.full_loss(obj, X, y, candidate)
            if self.backtracking:
                # Halve the step until the objective stops increasing (at most a few times).
                tries = 0
                while loss > state["prev_loss"] and tries < 8:
                    step *= 0.5
                    candidate = w - step * grad
                    loss = kernel.full_loss(obj, X, y, candidate)
                    tries += 1
            engine.w = candidate
            state["step"] = step
            state["prev_loss"] = loss
            # One full gradient touches every stored non-zero once plus a dense update.
            event.merge_iteration(
                grad_nnz=X.nnz, dense_coords=X.n_cols, conflicts=0, delay=0, drew_sample=False
            )

        recorder, on_epoch = self._recording(problem)
        engine.run(self.epochs, epoch_body, on_epoch)
        return self._finalize(recorder, engine.w, engine.trace,
                              include_sampling=False, info={"final_step": state["step"]})


__all__ = ["GradientDescentSolver"]
