"""Configuration dataclasses for the IS-ASGD solver family."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.balancing import DEFAULT_ZETA, BalancingDecision
from repro.core.importance import ImportanceScheme
from repro.utils.validation import check_positive


@dataclass
class ISASGDConfig:
    """Hyper-parameters of an IS-ASGD run (Algorithm 4).

    Parameters
    ----------
    step_size:
        Base step size λ; the effective step of sample ``i`` is
        ``λ / (n p_i)`` under importance sampling.
    epochs:
        Number of passes over the data (each worker performs
        ``n / num_workers`` iterations per epoch).
    num_workers:
        Degree of asynchrony (the paper's thread count / τ proxy).
    zeta:
        Threshold of the adaptive balancing rule.
    importance:
        Sampling scheme; ``LIPSCHITZ`` is IS-ASGD, ``UNIFORM`` degrades the
        solver to plain ASGD over the same execution engine.
    force_balancing:
        Override the adaptive rule (None = adaptive).
    balancing_method:
        ``"head_tail"`` (the paper's Algorithm 3, default) or ``"snake"``
        (the serpentine-dealing extension that also balances heavy-tailed
        Lipschitz spectra).
    reshuffle_sequences:
        Regenerate (True) or merely permute (False) the per-worker sample
        sequences at every epoch.  The paper notes the permute-only variant
        removes the residual sampling overhead with no practical loss.
    step_clip:
        Upper bound applied to the re-weighting factor ``1/(n p_i)`` to keep
        rarely-sampled points from producing destabilising steps.
    seed:
        Master seed for balancing, sequence generation and the engine.
    """

    step_size: float = 0.5
    epochs: int = 10
    num_workers: int = 4
    zeta: float = DEFAULT_ZETA
    importance: ImportanceScheme = ImportanceScheme.LIPSCHITZ
    force_balancing: Optional[BalancingDecision] = None
    balancing_method: str = "head_tail"
    reshuffle_sequences: bool = True
    step_clip: float = 100.0
    seed: int = 0
    record_every: int = 1
    use_normalized_rho: bool = True

    def __post_init__(self) -> None:
        check_positive(self.step_size, "step_size")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        check_positive(self.zeta, "zeta")
        check_positive(self.step_clip, "step_clip")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if isinstance(self.importance, str):
            self.importance = ImportanceScheme(self.importance)
        if self.balancing_method not in {"head_tail", "snake"}:
            raise ValueError(
                f"balancing_method must be 'head_tail' or 'snake', got {self.balancing_method!r}"
            )

    def with_updates(self, **kwargs) -> "ISASGDConfig":
        """Return a copy with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **kwargs)


__all__ = ["ISASGDConfig"]
