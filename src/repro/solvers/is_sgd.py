"""Serial importance-sampling SGD (Algorithm 2 of the paper).

The sampling distribution ``p_i = L_i / Σ_j L_j`` (Eq. 12) is constructed
once from the per-sample Lipschitz constants, the whole sample sequence is
pre-generated, and every step is re-weighted by ``1/(n p_i)`` (Eq. 8) to
keep the gradient estimator unbiased:

    w_{t+1} = w_t - λ / (n p_{i_t}) ∇f_{i_t}(w_t),     i_t ~ P.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.importance import lipschitz_probabilities, stepsize_reweighting
from repro.core.sampler import AliasSampler, SampleSequence
from repro.solvers.base import BaseSolver, EpochEngine, Problem
from repro.solvers.results import TrainResult
from repro.utils.rng import RandomState, as_rng


class ISSGDSolver(BaseSolver):
    """Serial SGD with Lipschitz-based importance sampling.

    Parameters
    ----------
    step_clip:
        Cap on the re-weighting factor ``1/(n p_i)`` — rarely-sampled points
        otherwise produce destabilising steps when the Lipschitz spread is
        extreme.
    reshuffle_sequences:
        When True a fresh i.i.d. sequence is drawn every epoch; when False
        the first epoch's sequence is permuted in place (the cheaper
        approximation discussed in Section 4.2 of the paper).
    """

    name = "is_sgd"

    def __init__(
        self,
        *,
        step_size: float = 0.1,
        epochs: int = 10,
        seed: RandomState = 0,
        cost_model=None,
        record_every: int = 1,
        step_clip: float = 100.0,
        reshuffle_sequences: bool = True,
        kernel=None,
    ) -> None:
        super().__init__(
            step_size=step_size,
            epochs=epochs,
            seed=seed,
            cost_model=cost_model,
            record_every=record_every,
            kernel=kernel,
        )
        if step_clip <= 0:
            raise ValueError("step_clip must be positive")
        self.step_clip = float(step_clip)
        self.reshuffle_sequences = bool(reshuffle_sequences)

    def fit(self, problem: Problem, *, initial_weights: Optional[np.ndarray] = None) -> TrainResult:
        """Run ``epochs`` passes of importance-sampled SGD."""
        rng = as_rng(self.seed)
        obj = problem.objective
        n = problem.n_samples
        kernel = self.kernel
        engine = EpochEngine(problem, initial_weights)

        # Algorithm 2, line 2: construct P from the Lipschitz constants.
        L = problem.lipschitz_constants()
        probs = lipschitz_probabilities(L)
        reweight = np.minimum(stepsize_reweighting(probs), self.step_clip)

        # Algorithm 2, line 3: pre-generate the sample sequence (one alias
        # table per fit; each regenerated epoch draws from it).
        sampler = AliasSampler(probs)
        state = {
            "sequence": SampleSequence.generate(
                probs, n, seed=int(rng.integers(0, 2**31 - 1)), sampler=sampler
            )
        }
        lam = self.step_size

        def epoch_body(epoch: int, event) -> None:
            if epoch > 0:
                if self.reshuffle_sequences:
                    state["sequence"] = SampleSequence.generate(
                        probs, n, seed=int(rng.integers(0, 2**31 - 1)), sampler=sampler
                    )
                else:
                    state["sequence"] = state["sequence"].reshuffled(
                        seed=int(rng.integers(0, 2**31 - 1))
                    )
            seq = np.asarray(state["sequence"].indices, dtype=np.int64)
            total_nnz = engine.run_sample_block(kernel, obj, seq, -lam * reweight[seq])
            event.merge_bulk(iterations=n, grad_nnz=total_nnz, sample_draws=n)

        recorder, on_epoch = self._recording(problem)
        engine.run(self.epochs, epoch_body, on_epoch)
        info = {
            "psi": float((L.sum() ** 2) / (L.size * float(np.dot(L, L)))) if L.size else 1.0,
            "step_clip": self.step_clip,
        }
        return self._finalize(recorder, engine.w, engine.trace, info=info)


__all__ = ["ISSGDSolver"]
