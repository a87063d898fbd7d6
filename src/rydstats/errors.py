"""Exception types shared across the package.

Two failure families matter to callers (and to the CLI exit-code contract):
invalid inputs or data, and numerical breakdowns that no input validation
can rule out ahead of time.
"""

import math
import numbers

import numpy as np

#: Most doubles that one numpy array can hold: its byte count must fit np.intp.
_MAX_DOUBLES = np.iinfo(np.intp).max // 8
#: Largest truncation whose (n_max + 1)^2 matrix of doubles numpy can index.
_N_MAX_LIMIT = math.isqrt(_MAX_DOUBLES) - 1


class RydstatsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RydstatsError, ValueError):
    """Invalid parameter, configuration or data file (CLI exit code 2)."""


class NumericalError(RydstatsError, ArithmeticError):
    """Numerical failure: no convergence of a root search, inadequate
    truncation, a non-finite intermediate (CLI exit code 3)."""


def _check_count(name: str, value, minimum: int) -> None:
    # A float such as 2.5 or NaN would otherwise reach numpy as a size or
    # a seed and fail there with a TypeError or a bare ValueError.
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_n_max(n_max, minimum: int = 1) -> None:
    """``n_max`` must be an integer from ``minimum`` up to the largest
    whose (n_max + 1)^2 matrix numpy can index, or numpy fails with its own
    ``MemoryError`` or ``ValueError``."""
    _check_count("n_max", n_max, minimum)
    if n_max > _N_MAX_LIMIT:
        raise ValidationError(f"n_max must be at most {_N_MAX_LIMIT}, got {n_max}")
