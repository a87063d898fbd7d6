"""Truncated photon-number distributions and their scalar statistics.

The central object is :class:`FockDistribution`, a probability vector over
photon numbers k = 0..n_max.  Only diagonal (photon-number) statistics are
represented; there are no coherences anywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import bisect_bracket
from .errors import NumericalError, ValidationError, _check_count

#: Default truncation order.  Adequate (tail < 1e-12) for Poissonian inputs
#: with mean <~ 1; heralded-source states at large excitation probability
#: need a larger value and the constructors enforce that explicitly.
DEFAULT_N_MAX = 20

#: Tail mass beyond n_max that a source constructor is allowed to discard.
TAIL_TOLERANCE = 1e-9

#: Most-negative entry tolerated on construction (round-off dust in a
#: vector a caller computed outside this package); anything below is an
#: error.
NEGATIVE_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class FockDistribution:
    """Normalized probability vector over photon numbers 0..n_max.

    Construction always normalizes.  Entries more negative than
    ``NEGATIVE_TOLERANCE`` are rejected; small negative dust is clipped to
    zero before normalizing.  Instances are immutable and safe to share
    between threads.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("probability vector must be 1-D and non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("probability vector contains non-finite entries")
        if arr.min() < -NEGATIVE_TOLERANCE:
            raise ValidationError(
                f"negative probability {arr.min():.3e} exceeds tolerance "
                f"{NEGATIVE_TOLERANCE:.0e}"
            )
        arr = np.clip(arr, 0.0, None)
        total = arr.sum()
        if total <= 0.0:
            raise ValidationError("probability vector sums to zero")
        arr = arr / total
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    def mean_photons(self) -> float:
        """Mean photon number, sum(k * p_k)."""
        k = np.arange(self.probs.size)
        return float(np.dot(k, self.probs))

    def g2(self) -> float:
        """Zero-delay autocorrelation, sum(k(k-1) p_k) / [sum(k p_k)]^2.

        Equals 1 for Poissonian light, 0 for a single photon, and is
        invariant under linear loss.  Undefined on vacuum.
        """
        k = np.arange(self.probs.size)
        mean = float(np.dot(k, self.probs))
        if mean <= 0.0:
            raise ValidationError("g2 is undefined for a zero-mean (vacuum) state")
        fac2 = float(np.dot(k * (k - 1), self.probs))
        square = mean**2
        if square == 0.0:
            raise NumericalError(
                f"g2 is undefined at mean photon number {mean:.3g}: its square underflows"
            )
        return fac2 / square

    def zeta(self) -> float:
        """Multiphoton strength: P(k >= 2) / P(k >= 1), in [0, 1]."""
        p_ge1 = float(self.probs[1:].sum())
        if p_ge1 <= 0.0:
            raise ValidationError("zeta is undefined for a vacuum-only state")
        return float(self.probs[2:].sum()) / p_ge1


def fock_state(n: int, n_max: int = DEFAULT_N_MAX) -> FockDistribution:
    """A number state with exactly ``n`` photons."""
    _check_count("n_max", n_max, 0)
    _check_count("n", n, 0)
    if n > n_max:
        raise ValidationError(f"photon number {n} outside 0..{n_max}")
    probs = np.zeros(n_max + 1)
    probs[n] = 1.0
    return FockDistribution(probs)


def _poisson_terms(mu: float, n_max: int) -> tuple[np.ndarray, float]:
    """Poisson pmf over 0..n_max and the probability mass beyond n_max.

    The terms follow p_k = p_{k-1} mu / k both ways from k = a, the mode
    capped at n_max, with p_a taken from its logarithm, so a large mean
    neither overflows nor underflows the whole vector to zero.  When the
    mode lies within 0..n_max the tail is summed from its terms, not taken
    as 1 - cdf, so that a tail far below ``TAIL_TOLERANCE`` keeps its
    relative precision.
    """
    # Written so that NaN fails the check.
    if not 0.0 <= mu < math.inf:
        raise ValidationError(f"mean photon number must be finite and >= 0, got {mu}")
    a = min(math.floor(mu), n_max)
    log_p = -mu if a == 0 else a * math.log(mu) - mu - math.lgamma(a + 1)
    # ratios[k] = p_k / p_{k+1} below the mode and p_k / p_{k-1} above it
    ratios = np.empty(n_max + 1)
    ratios[a] = 1.0
    np.divide(np.arange(1, a + 1), mu, out=ratios[:a])
    np.divide(mu, np.arange(a + 1, n_max + 1), out=ratios[a + 1:])
    pmf = np.empty(n_max + 1)
    pmf[a::-1] = math.exp(log_p) * np.cumprod(ratios[a::-1])
    pmf[a:] = pmf[a] * np.cumprod(ratios[a:])
    if math.floor(mu) > n_max:
        # The mode lies beyond n_max: most of the mass is in the tail.
        return pmf, max(0.0, 1.0 - float(pmf.sum()))
    # Past the mode each ratio mu / k is below (n_max + 1) / k, so after
    # n_max + 100 more terms the rest is below e^-49 of the tail.
    beyond = pmf[-1] * np.cumprod(mu / np.arange(n_max + 1, 2 * n_max + 102))
    return pmf, float(beyond[::-1].sum())


def coherent(mu: float, n_max: int = DEFAULT_N_MAX) -> FockDistribution:
    """Poissonian distribution with mean photon number ``mu``.

    Parameters
    ----------
    mu : float
        Mean photon number, finite and >= 0.
    n_max : int
        Truncation order.  Must be large enough that the Poisson tail
        beyond it is below ``TAIL_TOLERANCE``, otherwise the truncation
        would silently bias g2 upward and an error is raised instead.
    """
    _check_count("n_max", n_max, 0)
    probs, tail = _poisson_terms(mu, n_max)
    if tail >= TAIL_TOLERANCE:
        raise NumericalError(
            f"Poisson tail beyond n_max={n_max} is {tail:.2e} >= "
            f"{TAIL_TOLERANCE:.0e} for mu={mu}; increase n_max"
        )
    return FockDistribution(probs)


def coherent_mu_upper_bound(n_max: int) -> float:
    """Largest mean photon number representable at ``n_max`` within the
    tail tolerance (used to bracket root searches)."""

    def fits(mu):
        return _poisson_terms(mu, n_max)[1] < TAIL_TOLERANCE

    # Poisson(n_max) keeps more than a quarter of its mass beyond n_max,
    # so mu = n_max never fits.
    return bisect_bracket(fits, 0.0, float(n_max))[0]
