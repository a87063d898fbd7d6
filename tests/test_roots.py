import math

import numpy as np
import pytest

from rydstats._roots import BracketError, bisect_bracket, bisect_monotone
from rydstats.errors import NumericalError
from rydstats.fock import TAIL_TOLERANCE, _poisson_terms, coherent_mu_upper_bound
from rydstats.source import _herald_weights, _read_state_terms, read_state_p_upper_bound


def halving(below, lo, hi, iterations=200):
    # the loop both truncation bounds ran before they shared bisect_bracket
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def bracket(below, lo, hi, **kwargs):
    # bisect_bracket on the batch of one, with ``below`` of one float
    a, b = bisect_bracket(lambda x: np.array([below(v) for v in x.tolist()]),
                          np.array([lo]), np.array([hi]), **kwargs)
    return a.item(), b.item()


@pytest.mark.parametrize("n_max", [3, 20, 100, 130])
def test_coherent_bound_is_the_plain_halving_result(n_max):
    expected = halving(lambda mu: _poisson_terms(mu, n_max)[1] < TAIL_TOLERANCE,
                       0.0, float(n_max))[0]
    assert coherent_mu_upper_bound(n_max) == expected


@pytest.mark.parametrize("t_w, n_max", [(0.21, 20), (0.21, 100), (0.9, 40), (1.0, 130)])
def test_read_state_bound_is_the_plain_halving_result(t_w, n_max):
    weights = _herald_weights(t_w, n_max)

    def fits(p):
        terms = _read_state_terms(np.array([p]), t_w, weights)
        return 1.0 - terms.sum() < 0.999 * TAIL_TOLERANCE

    assert read_state_p_upper_bound(t_w, n_max) == halving(fits, 0.0, 1.0 - 1e-12)[0]


#: float.hex of each truncation bound, as the full-pmf predicate found it.
#: Each bound is the hi of a zeta bisection, so one ulp moves every midpoint.
COHERENT_BOUND_BITS = {
    1: "0x1.7727d1edd141bp-15",
    3: "0x1.98defacc475eap-7",
    20: "0x1.ecfe9528d9929p+1",
    100: "0x1.9ec6dc11f0431p+5",
    130: "0x1.26306dfe73497p+6",
}
READ_STATE_BOUND_BITS = {
    (1, 5e-324): "0x1.129a620000000p-31",
    (1, 0.21): "0x1.32d1adabbf309p-31",
    (1, 1.0): "0x1.129a610000000p-30",
    (3, 5e-324): "0x1.4a38fe778c5ffp-11",
    (3, 0.21): "0x1.6f48edffff6c9p-11",
    (3, 1.0): "0x1.060e7cdd3daffp-10",
    (20, 5e-324): "0x1.3d846c3bf5bf6p-2",
    (20, 0.21): "0x1.555294befe88ap-2",
    (20, 1.0): "0x1.6b4f8c6723a6ap-2",
    (100, 5e-324): "0x1.9376316002c48p-1",
    (100, 0.21): "0x1.9de99bd512a0fp-1",
    (100, 1.0): "0x1.a02a4170c5412p-1",
    (130, 5e-324): "0x1.aa2db48c98260p-1",
    (130, 0.21): "0x1.b30cb10fe5593p-1",
    (130, 1.0): "0x1.b48d472209a12p-1",
}


@pytest.mark.parametrize("n_max", sorted(COHERENT_BOUND_BITS))
def test_coherent_bound_keeps_its_bits(n_max):
    assert coherent_mu_upper_bound(n_max).hex() == COHERENT_BOUND_BITS[n_max]


@pytest.mark.parametrize("n_max, t_w", sorted(READ_STATE_BOUND_BITS))
def test_read_state_bound_keeps_its_bits(n_max, t_w):
    assert read_state_p_upper_bound(t_w, n_max).hex() == READ_STATE_BOUND_BITS[n_max, t_w]


@pytest.mark.parametrize("n_max", [1, 2, 10, 1000, 10**6])
def test_no_truncation_fits_the_bracket_edge(n_max):
    # why both bounds bisect without testing hi first: the heralded state
    # keeps almost no mass at p = 1 - 1e-12, down to a subnormal t_w, and
    # Poisson(n_max) keeps over a quarter of its mass beyond n_max
    for t_w in (5e-324, 1e-310, 1e-100, 1e-13, 1e-12, 1e-6, 0.21, 1.0):
        weights = _herald_weights(t_w, n_max)
        assert _read_state_terms(np.array([1.0 - 1e-12]), t_w, weights).sum() < 1e-4
    assert _poisson_terms(float(n_max), n_max)[1] > 0.26


def test_bracket_keeps_below_on_the_left():
    a, b = bracket(lambda x: x * x < 2.0, 0.0, 2.0)
    assert a * a < 2.0 <= b * b
    assert b - a <= math.ulp(a)


def test_bracket_stops_at_its_fixed_point():
    calls = []

    def below(x):
        calls.append(x)
        return x < 60.2

    assert bracket(below, 0.0, 100.0) == halving(lambda x: x < 60.2, 0.0, 100.0)
    assert len(calls) < 70  # the bracket is one ulp wide after ~55 halvings


@pytest.mark.parametrize(
    "below",
    [
        lambda x: True,
        lambda x: False,  # never evaluated at lo, and False there
        lambda x: x <= 0.0,
        lambda x: x < 1e-300,  # the 200-step cap comes first
        lambda x: x * x < 2.0,
        lambda x: x <= 1.0 - 1e-12 or x == math.nextafter(1.0, 2.0),  # True at hi
    ],
    ids=["true", "false", "zero", "tiny", "sqrt2", "hi"],
)
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0 - 1e-12), (1.0, math.nextafter(1.0, 2.0))],
                         ids=["wide", "one-ulp"])
def test_bracket_equals_the_full_halving_loop(below, lo, hi):
    assert bracket(below, lo, hi) == halving(below, lo, hi)


def test_bracket_width_stop():
    calls = []

    def below(x):
        calls.append(x)
        return x < 0.3

    a, b = bracket(below, 0.0, 1.0, x_tol=1e-3)
    assert b - a < 1e-3 and a < 0.3 <= b
    assert len(calls) == 10  # 2**-10 < 1e-3 <= 2**-9


def test_monotone_solves_and_checks():
    root = bisect_monotone(lambda x: x**3, 0.0, 2.0, np.array([2.0])).item()
    assert root == pytest.approx(2.0 ** (1 / 3), rel=1e-13)
    with pytest.raises(BracketError):
        bisect_monotone(lambda x: x, 0.0, 1.0, np.array([2.0]))
    # A step from 0 to 1 at x = 0.3: the bracket closes on the step, but
    # no x has f(x) within F_TOL of 0.5, so the residual check must fail.
    with pytest.raises(NumericalError):
        bisect_monotone(lambda x: (x >= 0.3).astype(float), 0.0, 1.0, np.array([0.5]))


def test_monotone_stops_at_its_bracket_width():
    # two end values, 44 halvings to a width below X_TOL, one residual
    calls = []

    def f(x):
        calls.append(x)
        return x

    assert bisect_monotone(f, 0.0, 1.0, np.array([0.3])).item() == pytest.approx(0.3, abs=1e-13)
    assert len(calls) == 47


def test_monotone_returns_the_upper_edge_that_hits_the_target():
    assert bisect_monotone(lambda x: x, 0.0, 1.0, np.array([1.0])).item() == 1.0


@pytest.mark.parametrize("target", [float("nan"), float("inf"), float("-inf")])
def test_monotone_rejects_non_finite_target(target):
    with pytest.raises(BracketError, match=r"range \[0\.0, 1\.0\]"):
        bisect_monotone(lambda x: x, 0.0, 1.0, np.array([target]))
