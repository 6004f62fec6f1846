"""Deterministic random-number-generation helpers.

Every stochastic component of the library (samplers, dataset generators,
asynchronous schedulers) accepts either an integer seed, ``None`` or an
existing :class:`numpy.random.Generator`.  :func:`as_rng` normalises all
three into a :class:`numpy.random.Generator` so that experiments are
reproducible end-to-end from a single seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: The union of things we accept wherever a source of randomness is needed.
RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, a ``SeedSequence`` or an
        already constructed ``Generator`` (returned unchanged).

    Examples
    --------
    >>> g1 = as_rng(123)
    >>> g2 = as_rng(123)
    >>> float(g1.random()) == float(g2.random())
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def derive_seed(seed: RandomState, *tags: int) -> int:
    """Derive a reproducible integer sub-seed from ``seed`` and ``tags``.

    Useful when a component needs to create a named stream (e.g. worker 3 of
    run 7) without consuming randomness from the parent generator.
    """
    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(0, 2**31 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        base = int(seed.generate_state(1)[0])
    elif seed is None:
        base = int(np.random.SeedSequence().generate_state(1)[0])
    else:
        base = int(seed)
    mix = np.random.SeedSequence([base, *[int(t) for t in tags]])
    return int(mix.generate_state(1)[0])


def permutation(rng: RandomState, n: int) -> np.ndarray:
    """Return a random permutation of ``range(n)`` as an int64 array."""
    return as_rng(rng).permutation(n).astype(np.int64)


__all__ = [
    "RandomState",
    "as_rng",
    "derive_seed",
    "permutation",
]
