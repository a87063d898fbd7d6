"""Bracketed bisection: the one halving loop, used for parameter inference
and for the truncation bounds that bracket it.

Bisection is deliberately chosen over faster schemes: the target functions
(g2 or multiphoton strength versus source parameter) are monotone but very
flat at one end of the bracket, and guaranteed convergence matters more
here than iteration count.

Both functions also solve a batch in the same loop: an array of targets
for :func:`bisect_monotone`, arrays of bracket ends for
:func:`bisect_bracket`.  The function is then evaluated once per step on
the array of every element's midpoint (an element that has stopped keeps
its bracket), and each element takes exactly the steps, the stop and the
checks that it would take alone.
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
    is that value (the first such element of a batch)."""

    target = None


def bisect_monotone(f: Callable, lo: float, hi: float, target):
    """Solve f(x) = target for monotone non-decreasing f on [lo, hi].

    Runs :func:`bisect_bracket` until the bracket is narrower than
    ``X_TOL`` (or ``MAX_ITER`` steps are taken), then verifies
    |f(x) - target| < ``F_TOL`` at its midpoint.

    ``target`` may be a 1-D array: ``f`` then maps an array of x to an
    array of values (and a float to a float, for the end values), and the
    result is the array of each element's root.

    Raises
    ------
    BracketError
        If a target is not finite or lies outside [f(lo), f(hi)]; in a
        batch, its message names the first such element.
    NumericalError
        If a final residual check fails (the first, in a batch).
    """
    batch = np.ndim(target) > 0
    targets = np.array(target, dtype=float, ndmin=1)
    y_lo, y_hi = f(lo), f(hi)
    # Written so that a NaN target (or NaN end value) fails the check.
    bad = ~((y_lo <= targets) & (targets <= y_hi) & np.isfinite(targets))
    if bad.any():
        shown = targets[bad].tolist()[0] if batch else target
        exc = BracketError(f"target {shown!r} outside attainable range [{y_lo!r}, {y_hi!r}]")
        exc.target = shown
        raise exc
    roots = np.where(targets == y_lo, lo, hi)
    inner = np.flatnonzero((targets != y_lo) & (targets != y_hi))
    if inner.size:
        t = targets[inner] if batch else target
        ends = (np.full(inner.size, lo), np.full(inner.size, hi)) if batch else (lo, hi)
        a, b = bisect_bracket(lambda x: f(x) - t < 0.0, *ends, x_tol=X_TOL)
        mid = 0.5 * (a + b)
        residual = np.abs(f(mid) - t)
        failed = ~(residual < F_TOL)
        if failed.any():
            raise NumericalError(
                f"bisection did not converge: residual {np.extract(failed, residual)[0]:.3e} "
                f">= {F_TOL:.0e}"
            )
        roots[inner] = mid
    return roots if batch else roots[0].item()


def bisect_bracket(below: Callable, lo, hi, *, x_tol: float = 0.0):
    """Halve [a, b] = [lo, hi] around the point where ``below`` turns False,
    ``MAX_ITER`` times or until b - a < ``x_tol`` * max(1, |b|) (never, with
    the default ``x_tol`` = 0).  Returns the final (a, b).

    Once the midpoint rounds to a or b, one more step sets the bracket to
    where every later step would leave it, so the loop stops there with
    the (a, b) that ``MAX_ITER`` steps would give.

    With 1-D arrays ``lo`` and ``hi``, ``below`` maps the array of
    midpoints to an array of bools, and (a, b) are arrays.
    """
    batch = np.ndim(lo) > 0
    a, b = np.atleast_1d(lo).tolist(), np.atleast_1d(hi).tolist()
    live = list(range(len(a)))
    for _ in range(MAX_ITER):
        if not live:
            break
        mid = [0.5 * (x + y) for x, y in zip(a, b)]
        left = below(np.array(mid)).tolist() if batch else [below(mid[0])]
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
    return (np.array(a), np.array(b)) if batch else (a[0], b[0])
