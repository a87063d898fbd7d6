"""Bracketed bisection: the one halving loop, used for parameter inference
and for the truncation bounds that bracket it.

Bisection is deliberately chosen over faster schemes: the target functions
(g2 or multiphoton strength versus source parameter) are monotone but very
flat at one end of the bracket, and guaranteed convergence matters more
here than iteration count.

Both functions solve a batch: a 1-D array of targets for
:func:`bisect_monotone`, 1-D arrays of bracket ends for
:func:`bisect_bracket`; a scalar problem is a batch of one.  The function
is evaluated once per step on the array of every element's midpoint (an
element that has stopped keeps its bracket), and each element takes
exactly the steps, the stop and the checks that it would take alone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalError


#: Bracket width, relative to max(1, |b|), at which :func:`bisect_monotone` stops.
X_TOL = 1e-13
#: Largest residual |f(x) - target| that :func:`bisect_monotone` accepts.
F_TOL = 1e-10
#: Most halving steps :func:`bisect_bracket` takes.
MAX_ITER = 200


class BracketError(ValueError):
    """The target value is not enclosed by the search bracket.  ``target``
    is that value (the first such element of the batch)."""

    target = None


def bisect_monotone(f: Callable, lo: float, hi: float, targets: np.ndarray) -> np.ndarray:
    """Solve f(x) = t for each element t of the 1-D array ``targets``, for
    monotone non-decreasing f on [lo, hi] that maps an array to an array.

    Runs :func:`bisect_bracket` until the bracket is narrower than
    ``X_TOL`` (or ``MAX_ITER`` steps are taken), then verifies
    |f(x) - t| < ``F_TOL`` at its midpoint.  Returns the array of roots.

    Raises
    ------
    BracketError
        If a target is not finite or lies outside [f(lo), f(hi)]; its
        message names the first such element.
    NumericalError
        If a final residual check fails (the first, in the batch).
    """
    y_lo, y_hi = (f(np.array([x])).item() for x in (lo, hi))
    # Written so that a NaN target (or NaN end value) fails the check.
    bad = ~((y_lo <= targets) & (targets <= y_hi) & np.isfinite(targets))
    if bad.any():
        shown = targets[bad][0].item()
        exc = BracketError(f"target {shown!r} outside attainable range [{y_lo!r}, {y_hi!r}]")
        exc.target = shown
        raise exc
    roots = np.where(targets == y_lo, lo, hi)
    inner = np.flatnonzero((targets != y_lo) & (targets != y_hi))
    t = targets[inner]
    a, b = bisect_bracket(lambda x: f(x) - t < 0.0, np.full(inner.size, lo),
                          np.full(inner.size, hi), x_tol=X_TOL)
    mid = 0.5 * (a + b)
    residual = np.abs(f(mid) - t)
    failed = ~(residual < F_TOL)
    if failed.any():
        raise NumericalError(
            f"bisection did not converge: residual {residual[failed][0]:.3e} >= {F_TOL:.0e}"
        )
    roots[inner] = mid
    return roots


def bisect_bracket(below: Callable, lo: np.ndarray, hi: np.ndarray, *, x_tol: float = 0.0):
    """Halve each [a, b] = [lo, hi] (1-D arrays) around the point where
    ``below`` (of the array of midpoints) turns False, ``MAX_ITER`` times
    or until b - a < ``x_tol`` * max(1, |b|) (never, with the default
    ``x_tol`` = 0).  Returns the final arrays (a, b).

    Once the midpoint rounds to a or b, one more step sets the bracket to
    where every later step would leave it, so the element stops there with
    the (a, b) that ``MAX_ITER`` steps would give.
    """
    a, b = lo.tolist(), hi.tolist()
    live = range(len(a))
    for _ in range(MAX_ITER):
        if not live:
            break
        mid = [0.5 * (x + y) for x, y in zip(a, b)]
        left = below(np.array(mid)).tolist()
        still = []
        for i in live:
            m = mid[i]
            fixed = m == a[i] or m == b[i]
            if left[i]:
                a[i] = m
            else:
                b[i] = m
            if not (fixed or b[i] - a[i] < x_tol * max(1.0, abs(b[i]))):
                still.append(i)
        live = still
    return np.array(a), np.array(b)
