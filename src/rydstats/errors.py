"""Exception types shared across the package.

Two failure families matter to callers (and to the CLI exit-code contract):
invalid inputs or data, and numerical breakdowns that no input validation
can rule out ahead of time.
"""

import numbers


class RydstatsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RydstatsError, ValueError):
    """Invalid parameter, configuration or data file (CLI exit code 2)."""


class NumericalError(RydstatsError, ArithmeticError):
    """Numerical failure: singular/ill-conditioned matrix, no convergence
    of a root search, inadequate truncation (CLI exit code 3)."""


def _check_count(name: str, value, minimum: int) -> None:
    # A float such as 2.5 or NaN would otherwise reach numpy as a size or
    # a seed and fail there with a TypeError or a bare ValueError.
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
