"""Detection-probability model of the heralded source.

Each per-trial detection probability is a directional (source) term plus a
noise term:

    p_w  = p t_w + p_nw
    p_r  = p eta_a t_r + p (1 - eta_a) p_eg t_r + p_nr
    p_wr = p_w eta_a t_r + p_w p (1 - eta_a) p_eg t_r + p_w p_nr

with eta_a the intrinsic read-out efficiency and p_eg the branching ratio
of the undesired decay path.  Storage in the nonlinear medium rescales the
read transmission by a measured, write-probability-dependent storage
efficiency and strongly suppresses the read noise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._table import read_table
from .errors import NumericalError, ValidationError
from .source import DEFAULT_T_W, _check_p, _check_t_w

#: Read-noise probability after storage (temporal/frequency filtering).
STORED_P_NR = 1.3e-4


@dataclass(frozen=True)
class RateModelParams:
    """Inputs of the detection-probability model; all probabilities."""

    p: float
    t_w: float = DEFAULT_T_W
    t_r: float = 0.09
    eta_a: float = 0.32
    p_eg: float = 0.20
    p_nw: float = 1e-4
    p_nr: float = 1.5e-3

    def __post_init__(self):
        _check_p(self.p)
        for name in ("t_r", "eta_a", "p_eg", "p_nw", "p_nr"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        _check_t_w(self.t_w)


def _excitation_probability(p_w, params: RateModelParams) -> np.ndarray:
    """The excitation probability p of each detected write probability
    p_w, by p_w = p t_w + p_nw; a ValidationError names the first p_w
    whose p is outside [0, 1)."""
    p_w = np.asarray(p_w, dtype=float)
    with np.errstate(over="ignore"):  # at a tiny t_w; inf fails the range check
        p = (p_w - params.p_nw) / params.t_w
    valid = (p >= 0.0) & (p < 1.0)
    if not valid.all():
        raise ValidationError(
            f"p_w={p_w[~valid][0]} implies an excitation probability outside [0, 1) "
            f"by p_w = p t_w + p_nw at p_nw={params.p_nw}, t_w={params.t_w}")
    return p


@dataclass(frozen=True)
class DetectionProbabilities:
    """Per-trial detection probabilities predicted by the model."""

    p_w: float
    p_r: float
    p_wr: float
    p_r_given_w: float


def predict_probabilities(params: RateModelParams) -> DetectionProbabilities:
    """Evaluate the three model equations and the conditional read probability.

    Raises
    ------
    ValidationError
        If p_w comes out zero (conditional probability undefined).
    """
    q = params
    p_w = q.p * q.t_w + q.p_nw
    read_signal = q.p * q.eta_a * q.t_r + q.p * (1.0 - q.eta_a) * q.p_eg * q.t_r
    p_r = read_signal + q.p_nr
    p_wr = p_w * q.eta_a * q.t_r + p_w * q.p * (1.0 - q.eta_a) * q.p_eg * q.t_r + p_w * q.p_nr
    if p_w <= 0.0:
        raise ValidationError("write probability is zero; conditional read undefined")
    return DetectionProbabilities(p_w, p_r, p_wr, p_wr / p_w)


def predict_cross_correlation(params: RateModelParams) -> float:
    """Write/read cross-correlation, p_wr / (p_w p_r).

    Raises
    ------
    NumericalError
        If the ratio is not finite: p_w p_r underflows, or is so small
        that the ratio overflows.
    """
    probs = predict_probabilities(params)
    if probs.p_r <= 0.0:
        q = params
        raise ValidationError(
            "cross-correlation undefined: p_r = p t_r (eta_a + (1 - eta_a) p_eg) + p_nr is 0 "
            f"at p={q.p}, t_r={q.t_r}, eta_a={q.eta_a}, p_eg={q.p_eg}, p_nr={q.p_nr}")
    denominator = float(probs.p_w * probs.p_r)
    ratio = float(probs.p_wr) / denominator if denominator > 0.0 else math.inf
    if not math.isfinite(ratio):
        raise NumericalError(
            f"cross-correlation p_wr / (p_w p_r) overflows at p_w={probs.p_w:.3g}, "
            f"p_r={probs.p_r:.3g}"
        )
    return ratio


class EfficiencyTable:
    """Measured storage efficiency versus detected write probability.

    Piecewise-linear interpolation with clamped extrapolation beyond the
    measured endpoints (the minimal faithful reading of tabulated data).
    """

    def __init__(self, p_w: np.ndarray, eta: np.ndarray):
        p_w = np.asarray(p_w, dtype=float)
        eta = np.asarray(eta, dtype=float)
        if p_w.size == 0:
            raise ValidationError("efficiency table is empty")
        if p_w.ndim != 1 or p_w.shape != eta.shape:
            raise ValidationError("efficiency table columns must be equal-length 1-D")
        if not (np.all(np.isfinite(p_w)) and np.all(np.isfinite(eta))):
            raise ValidationError("efficiency table values must be finite")
        if np.any(np.diff(p_w) <= 0):
            raise ValidationError("efficiency table p_w values must be strictly increasing")
        if np.any((eta < 0) | (eta > 1)):
            raise ValidationError("efficiency values must lie in [0, 1]")
        self.p_w = p_w
        self.eta = eta

    def __call__(self, p_w_point: float) -> float:
        return float(np.interp(p_w_point, self.p_w, self.eta))

    @staticmethod
    def constant(eta: float) -> "EfficiencyTable":
        return EfficiencyTable(np.array([0.0, 1.0]), np.array([eta, eta]))

    @staticmethod
    def from_csv(path) -> "EfficiencyTable":
        return EfficiencyTable(*read_table(path, ("p_w", "eta")).T)


def with_storage(
    params: RateModelParams,
    table: EfficiencyTable,
    stored_p_nr: float = STORED_P_NR,
) -> RateModelParams:
    """Model parameters with the read photon stored in the nonlinear medium.

    The read transmission becomes eta(p_w) * t_r, with p_w the write
    probability ``params`` predict, and the read noise drops to
    ``stored_p_nr`` because noise light cannot be stored.
    """
    eta = table(predict_probabilities(params).p_w)
    return replace(params, t_r=eta * params.t_r, p_nr=stored_p_nr)


def fit_p_eg(
    p_w: np.ndarray,
    p_r_given_w: np.ndarray,
    base: RateModelParams,
) -> tuple[float, float]:
    """Least-squares fit of the branching ratio to measured
    (p_w, p_r|w) pairs; all other parameters are held at ``base``.

    The model p_r|w = c0 + a_i p_eg is affine in p_eg (c0 = eta_a t_r + p_nr,
    a_i = p_i (1 - eta_a) t_r), so the bounded least-squares fit is
    sum(a_i (y_i - c0)) / sum(a_i^2) clipped to [0, 1].

    Returns
    -------
    (p_eg, residual_norm)
        Fitted branching ratio in [0, 1] and the root-sum-square residual.

    Raises
    ------
    ValidationError
        If the data cannot constrain p_eg (every a_i is zero).
    """
    p_w = np.asarray(p_w, dtype=float)
    p_r_given_w = np.asarray(p_r_given_w, dtype=float)
    if p_w.ndim != 1 or p_w.shape != p_r_given_w.shape:
        raise ValidationError("fit data columns must be equal-length 1-D")
    if p_w.size < 3:
        raise ValidationError(f"need at least 3 data rows to fit, got {p_w.size}")
    if not (np.isfinite(p_w).all() and np.isfinite(p_r_given_w).all()):
        raise ValidationError("fit data must be finite")
    p = _excitation_probability(p_w, base)
    c0 = base.eta_a * base.t_r + base.p_nr
    a = p * (1.0 - base.eta_a) * base.t_r
    scale = float(np.dot(a, a))
    if scale == 0.0:
        raise ValidationError("data cannot constrain p_eg: p (1 - eta_a) t_r is zero on every row")
    p_eg = min(max(float(np.dot(a, p_r_given_w - c0)) / scale, 0.0), 1.0)
    norm = float(np.sqrt(np.sum((c0 + a * p_eg - p_r_given_w) ** 2)))
    if p_eg < 1e-9 or p_eg > 1.0 - 1e-9:
        warnings.warn(
            f"fitted branching ratio pegged at boundary ({p_eg:.3g}); "
            "the data may not constrain it",
            stacklevel=2,
        )
    return p_eg, norm
