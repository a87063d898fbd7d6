"""Bracketed bisection: the one halving loop, used for parameter inference
and for the truncation bounds that bracket it.

Bisection is deliberately chosen over faster schemes: the target functions
(g2 or multiphoton strength versus source parameter) are monotone but very
flat at one end of the bracket, and guaranteed convergence matters more
here than iteration count.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NumericalError


class BracketError(ValueError):
    """The target value is not enclosed by the search bracket."""


def bisect_monotone(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    *,
    f_tol: float,
    x_tol: float = 1e-13,
    max_iter: int = 200,
) -> float:
    """Solve f(x) = target for monotone non-decreasing f on [lo, hi].

    Runs :func:`bisect_bracket` until the bracket is narrower than
    ``x_tol`` (or ``max_iter`` is hit), then verifies
    |f(x) - target| < ``f_tol`` at its midpoint.

    Raises
    ------
    BracketError
        If target is not finite or lies outside [f(lo), f(hi)].
    NumericalError
        If the final residual check fails.
    """
    y_lo, y_hi = f(lo), f(hi)
    # Written so that a NaN target (or NaN end value) fails the check.
    if not y_lo <= target <= y_hi or not math.isfinite(target):
        raise BracketError(f"target {target!r} outside attainable range [{y_lo!r}, {y_hi!r}]")
    if y_lo == target:
        return lo
    if y_hi == target:
        return hi
    a, b = bisect_bracket(lambda x: f(x) - target < 0.0, lo, hi,
                          x_tol=x_tol, max_iter=max_iter)
    mid = 0.5 * (a + b)
    residual = abs(f(mid) - target)
    if not residual < f_tol:
        raise NumericalError(
            f"bisection did not converge: residual {residual:.3e} >= {f_tol:.0e}"
        )
    return mid


def bisect_bracket(below: Callable[[float], bool], lo: float, hi: float, *,
                   x_tol: float = 0.0, max_iter: int = 200) -> tuple[float, float]:
    """Halve [a, b] = [lo, hi] around the point where ``below`` turns False,
    ``max_iter`` times or until b - a < ``x_tol`` * max(1, |b|) (never, with
    the default ``x_tol`` = 0).  Returns the final (a, b).

    Once the midpoint rounds to a or b, one more step sets the bracket to
    where every later step would leave it, so the loop stops there with
    the (a, b) that ``max_iter`` steps would give.
    """
    a, b = lo, hi
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        fixed = mid == a or mid == b
        if below(mid):
            a = mid
        else:
            b = mid
        if fixed or b - a < x_tol * max(1.0, abs(b)):
            break
    return a, b
