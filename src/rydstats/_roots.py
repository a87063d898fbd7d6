"""Bracketed bisection: the one halving loop, used for parameter inference
and for the truncation bounds that bracket it.

Bisection is deliberately chosen over faster schemes: the target functions
(g2 or multiphoton strength versus source parameter) are monotone but very
flat at one end of the bracket, and guaranteed convergence matters more
here than iteration count.
"""

from __future__ import annotations

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
        If target lies outside [f(lo), f(hi)].
    NumericalError
        If the final residual check fails.
    """
    f_lo = f(lo) - target
    f_hi = f(hi) - target
    if f_lo > 0.0 or f_hi < 0.0:
        raise BracketError(
            f"target {target!r} outside attainable range "
            f"[{f_lo + target!r}, {f_hi + target!r}]"
        )
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
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
    the default ``x_tol`` = 0).  Returns the final (a, b)."""
    a, b = lo, hi
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        if below(mid):
            a = mid
        else:
            b = mid
        if b - a < x_tol * max(1.0, abs(b)):
            break
    return a, b
