"""Model of the heralded (write/read) photon-pair source.

The source emits write and read modes in a two-mode squeezed state with
perfectly correlated photon numbers, P(n, n) = (1-p) p^n.  Heralding on a
non-number-resolving write detection with path transmission t_w leaves the
read mode in a known diagonal state with no vacuum component; the
excitation probability p is in practice inferred from a measured g2 of
that state, which is loss-independent and monotone in p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import BracketError, bisect_bracket, bisect_monotone
from .errors import NumericalError, ValidationError, _check_count
from .fock import DEFAULT_N_MAX, TAIL_TOLERANCE, FockDistribution, _mean_and_g2, _normalized

#: Write-path transmission (including detection) used when none is given.
DEFAULT_T_W = 0.21

_P_FLOOR = 1e-12


def _check_p(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"excitation probability must be in [0, 1), got {p}")


def _check_t_w(t_w: float) -> None:
    if not 0.0 < t_w <= 1.0:
        raise ValidationError(f"write transmission must be in (0, 1], got {t_w}")


@dataclass(frozen=True)
class SourceModel:
    """Source parameters: excitation probability and write-path transmission.

    ``p`` is the probability that at least one excitation is created in the
    write mode (p < 1 for the geometric photon-number series to converge);
    ``t_w`` is the write-path transmission including detector efficiency.
    """

    p: float
    t_w: float = DEFAULT_T_W

    def __post_init__(self):
        _check_p(self.p)
        _check_t_w(self.t_w)


def _herald_weights(t_w: float, n_max: int) -> np.ndarray:
    """2^k (1 - (1-t_w)^n) for n = 1..n_max, with 1 <= 2^k t_w < 2: the
    chance that the write detector clicks on n write photons, the factor
    the heralding puts on p^(n-1), scaled by an exact power of two so that
    it stays normal, and 1/(2^k t_w) finite, for every t_w in (0, 1].

    Written as -expm1(n log1p(-t_w)), which stays exact to rounding where
    1 - t_w would round to 1.  The array is scaled, as 2^k alone overflows
    at t_w = 5e-324."""
    with np.errstate(divide="ignore"):  # t_w = 1: log(0) = -inf, weight 1
        log_miss = np.log1p(-t_w)
    weights = -np.expm1(np.arange(1, n_max + 1) * log_miss)
    return np.ldexp(weights, 1 - math.frexp(t_w)[1])


def _read_state_terms(p: np.ndarray, t_w: float, weights: np.ndarray) -> np.ndarray:
    """Unnormalized heralded read-state vectors including their exact
    normalization prefactor, one row per element of the 1-D array ``p``,
    from the ``weights`` of :func:`_herald_weights`; each sums to
    1 - (discarded tail).  Dividing by 2^k t_w undoes the weights' scale,
    so a normal entry has the bits that dividing the unscaled weights by
    t_w gives."""
    terms = np.zeros((p.size, weights.size + 1))
    p = p[:, None]
    prefactor = (1.0 - p) * (1.0 - p * (1.0 - t_w)) / (2.0 * math.frexp(t_w)[0])
    # the powers n - 1 for n = 1..n_max
    terms[:, 1:] = prefactor * p ** np.arange(weights.size, dtype=float) * weights
    return terms


def _read_state_rows(p: np.ndarray, t_w: float, n_max: int) -> np.ndarray:
    """:func:`_read_state_terms`, after the check of
    :func:`conditional_read_state` on the tail that they discard."""
    terms = _read_state_terms(p, t_w, _herald_weights(t_w, n_max))
    tail = 1.0 - terms.sum(axis=-1)
    bad = tail >= TAIL_TOLERANCE
    if np.any(bad):
        raise NumericalError(
            f"read-state tail beyond n_max={n_max} is {tail[bad][0]:.2e} for "
            f"p={p[bad][0]}; increase n_max"
        )
    return terms


def conditional_read_state(model: SourceModel, n_max: int = DEFAULT_N_MAX) -> FockDistribution:
    """Read-mode state conditioned on a write detection.

    p_n is proportional to p^(n-1) [1 - (1-t_w)^n] for n >= 1 and p_0 = 0:
    heralding guarantees at least one read photon, and the detector's
    inability to resolve photon number weights the higher components.

    Raises
    ------
    NumericalError
        If the discarded tail beyond n_max reaches ``TAIL_TOLERANCE``
        (the analytic trace of the full state is exactly 1).
    """
    _check_count("n_max", n_max, 1)  # the heralded state has no vacuum term
    return FockDistribution(_read_state_rows(np.array([model.p]), model.t_w, n_max)[0])


def read_state_p_upper_bound(t_w: float, n_max: int) -> float:
    """Largest excitation probability whose heralded read state fits the
    truncation at ``n_max`` (tail just below tolerance).  Used to bracket
    root searches over p."""
    target = 0.999 * TAIL_TOLERANCE
    weights = _herald_weights(t_w, n_max)

    def fits(p):
        return 1.0 - _read_state_terms(p, t_w, weights).sum(axis=1) < target

    # p = 1 - 1e-12 never fits: each term is at most 2e-12 (n 2e-24 for
    # t_w < 1e-12), so the largest n_max keeps under 0.3% of the mass.
    return bisect_bracket(fits, np.zeros(1), np.array([1.0 - 1e-12]))[0].item()


def infer_p_from_g2(
    g2_target: float, t_w: float = DEFAULT_T_W, n_max: int = DEFAULT_N_MAX
) -> float:
    """Invert the measured read-state g2 to the excitation probability p.

    g2 of the heralded read state is independent of linear losses and
    strictly increasing in p, so a bracketed bisection on p is exact.
    The search is run against the truncated state at ``n_max`` so that the
    round trip with :func:`conditional_read_state` closes to ~1e-10.

    Raises
    ------
    ValidationError
        If ``g2_target`` is outside the attainable range at this n_max.
    NumericalError
        If the residual after bisection exceeds 1e-10.
    """
    _check_t_w(t_w)
    _check_count("n_max", n_max, 1)
    p_hi = read_state_p_upper_bound(t_w, n_max)
    weights = _herald_weights(t_w, n_max)
    try:
        return bisect_monotone(
            lambda p: _mean_and_g2(_normalized(_read_state_terms(p, t_w, weights)))[1],
            _P_FLOOR, p_hi, np.array([g2_target]),
        ).item()
    except BracketError as exc:
        raise ValidationError(
            f"g2 target {g2_target} outside the attainable range at "
            f"n_max={n_max} ({exc}); larger n_max extends the upper end"
        ) from exc
