"""Small shared utilities used across the :mod:`repro` package.

The helpers here deliberately have no dependency on the rest of the
library so that every other sub-package may import them freely without
creating circular imports.
"""

from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import (
    check_array_1d,
    check_in_range,
    check_positive,
    check_probability_vector,
)
from repro.utils.logging import get_logger

__all__ = [
    "RandomState",
    "as_rng",
    "check_array_1d",
    "check_in_range",
    "check_positive",
    "check_probability_vector",
    "get_logger",
]
