"""Full experiment chain: source state -> losses -> blockaded medium.

The stored state is obtained by applying, in order: transmission losses
between the setups (heralded input only; attenuated-laser inputs are
already back-propagated to the cloud entrance), the imperfect pulse
compression into the medium (a beam-splitter loss), half of the linear
propagation losses, and finally the blockade matrix.  The
stages before the blockade are binomial thinnings, which compose into
one loss matrix.  The second half of the propagation loss and the
retrieval efficiency are linear, so they never change g2 and enter only
the efficiency formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from ._roots import BracketError, bisect_monotone
from ._table import write_table
from .blockade import BlockadeConfig, _exact_covers, blockade_matrix, exact_matrix
from .errors import NumericalError, ValidationError, _check_count
from .fock import (
    FockDistribution,
    _dot_rows,
    _mean_and_g2,
    _normalized,
    coherent,
    coherent_mu_upper_bound,
)
from .source import (
    _P_FLOOR,
    DEFAULT_T_W,
    SourceModel,
    _check_t_w,
    _herald_weights,
    _read_state_rows,
    conditional_read_state,
    read_state_p_upper_bound,
)
from .transfer import TransferMatrix, loss_matrix

INPUT_KINDS = ("dlcz", "wcs")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to push one input state through the experiment.

    ``input_kind`` selects the source: "dlcz" for the heralded read photon
    (parametrized by excitation probability p, with write transmission
    ``t_w``), "wcs" for an attenuated laser pulse (parametrized by its
    mean photon number at the cloud entrance).  ``blockade`` is the whole
    medium: the slow-light variant (no storage) is a longer
    ``blockade.cloud_length``.  ``blockade.n_max`` truncates every state
    and matrix of the chain.
    """

    input_kind: str = "dlcz"
    t_w: float = DEFAULT_T_W
    t_losses: float = 0.15
    eta_compression: float = 0.6
    eta_eit: float = 0.6
    eta_r: float = 0.41
    compression_band: tuple[float, float] = (0.45, 0.75)
    blockade: BlockadeConfig = field(default_factory=BlockadeConfig)

    def __post_init__(self):
        if self.input_kind not in INPUT_KINDS:
            raise ValidationError(
                f"input kind must be one of {INPUT_KINDS}, got {self.input_kind!r}"
            )
        for name in ("t_losses", "eta_compression", "eta_eit", "eta_r"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValidationError(f"{name} must lie in (0, 1], got {value}")
        _check_t_w(self.t_w)
        lo, hi = self.compression_band
        if not (0.0 < lo <= hi <= 1.0):
            raise ValidationError(f"compression band must satisfy 0 < lo <= hi <= 1, got {self.compression_band}")

    @cached_property
    def _zeta_inverse(self):
        # Built on the first inversion and kept, as the config is frozen.
        return _zeta_curve(self)

    @cached_property
    def _setup_loss(self) -> TransferMatrix:
        # Losses between the setups: the dlcz zeta curve and cloud states share it.
        return loss_matrix(self.t_losses, self.blockade.n_max)


def medium_matrix(cfg: PipelineConfig, threads: int = 1) -> TransferMatrix:
    """The blockade matrix of ``cfg.blockade``: :func:`exact_matrix` for a
    cloud of at most ``EXACT_MAX_RADII`` blockade radii, else the Monte
    Carlo on ``threads`` threads (the only use of the trial count and seed)."""
    _check_count("threads", threads, 1)
    b = cfg.blockade
    if _exact_covers(b.cloud_length, b.blockade_radius):
        return exact_matrix(b.cloud_length, b.blockade_radius, b.n_max)
    return blockade_matrix(b, threads=threads)


def source_distribution(cfg: PipelineConfig, param: float) -> FockDistribution:
    """The input state fed to the chain: heralded read state at excitation
    probability ``param``, or Poissonian state with mean ``param``."""
    if cfg.input_kind == "dlcz":
        return conditional_read_state(SourceModel(param, cfg.t_w), cfg.blockade.n_max)
    return coherent(param, cfg.blockade.n_max)


def cloud_input_distribution(cfg: PipelineConfig, param: float) -> FockDistribution:
    """The state right before the cloud: transmission losses applied for
    the heralded input, the Poissonian input unchanged (its mean is
    already back-propagated to that plane).  Multiphoton strength is
    quoted for this state."""
    src = source_distribution(cfg, param)
    if cfg.input_kind == "dlcz":
        return cfg._setup_loss.apply(src)
    return src


def _cloud_transmission(cfg: PipelineConfig) -> float:
    # Source to cloud entrance: the setup losses for the heralded input;
    # the Poissonian input's mean is already quoted at the cloud.
    return cfg.t_losses if cfg.input_kind == "dlcz" else 1.0


def _pre_blockade_matrix(cfg: PipelineConfig, eta_compression: float) -> TransferMatrix:
    # Transmission losses, compression and half the EIT loss are binomial
    # thinnings, and loss(a) o loss(b) = loss(ab).
    t = math.sqrt(cfg.eta_eit) * eta_compression * _cloud_transmission(cfg)
    return loss_matrix(t, cfg.blockade.n_max)


def _check_same_n_max(cfg: PipelineConfig, **parts) -> None:
    for name, part in parts.items():
        if part.n_max != cfg.blockade.n_max:
            raise ValidationError(f"{name} n_max={part.n_max} does not match config n_max={cfg.blockade.n_max}")


def _propagate(medium: TransferMatrix, thinning: TransferMatrix, probs: np.ndarray) -> np.ndarray:
    """``probs`` (a distribution, or one per row) through ``thinning``,
    then ``medium``, unnormalized.

    Two matrix-vector products per row.  The matrix-matrix product medium
    @ thinning does n_max + 1 times the arithmetic, and at n_max = 100
    OpenBLAS hands it to its worker threads, which costs milliseconds.
    A stacked matmul of the matrix by each (n, 1) row is one matrix-vector
    product per row, the one ``M @ p`` takes; ``probs @ M.T`` sums in
    another order."""
    for m in (thinning.matrix, medium.matrix):
        probs = np.matmul(m, probs[..., None])[..., 0]
    return probs


def post_blockade_distribution(
    cfg: PipelineConfig, input_dist: FockDistribution, medium: TransferMatrix
) -> FockDistribution:
    """State after the blockaded ``medium`` (before retrieval and the
    second half of the propagation losses), with the pulse compression
    ``cfg.eta_compression``.  Build the medium once with
    :func:`medium_matrix` and pass it to every call."""
    _check_same_n_max(cfg, input=input_dist, medium=medium)
    return FockDistribution(
        _propagate(medium, _pre_blockade_matrix(cfg, cfg.eta_compression), input_dist.probs)
    )


def g2_after_storage(
    cfg: PipelineConfig, input_dist: FockDistribution, medium: TransferMatrix
) -> float:
    """g2 of the retrieved light.  The linear stages after the blockade
    cannot change it, so it is evaluated right after the medium."""
    return post_blockade_distribution(cfg, input_dist, medium).g2()


def efficiency(
    cfg: PipelineConfig, input_dist: FockDistribution, medium: TransferMatrix
) -> float:
    """Storage-and-retrieval efficiency: mean retrieved photons over mean
    photons at the cloud entrance.

    The retrieved mean carries the retrieval efficiency and the remaining
    half of the propagation losses on top of the post-blockade state; the
    input mean for the heralded source is the source mean times the
    transmission to the cloud.
    """
    out = post_blockade_distribution(cfg, input_dist, medium)
    return _efficiency(cfg, input_dist.mean_photons(), out.mean_photons())


def _efficiency(cfg: PipelineConfig, mean_in, mean_out):
    """Efficiency from the mean photon numbers of the input state and of
    its post-blockade state (floats, or arrays of one per point)."""
    if np.any(mean_in <= 0.0):
        raise ValidationError("efficiency undefined for a vacuum input")
    t = _cloud_transmission(cfg)
    return cfg.eta_r * math.sqrt(cfg.eta_eit) * mean_out / (t * mean_in)


def _zeta_curve(cfg: PipelineConfig):
    """Multiphoton strength of the cloud-entrance state as a function of
    the source parameter, and the largest parameter the truncation at
    ``cfg.blockade.n_max`` holds.

    The curve is the zeta of the state truncated at n_max, written as
    (W2 . c) / (W1 . c): c is the source vector over n = 1..n_max without
    its normalization, which cancels, and W_j[n] is the chance that at
    least j of n photons reach the cloud.  The tables are built here,
    once; one evaluation is a length-n_max power (dlcz) or exp (wcs) and
    two dot products against them, with no matrix product and no pmf.
    Either curve maps a 1-D array of parameters to the array of their
    values, each with the bits that it has in a batch of one.
    """
    n_max = cfg.blockade.n_max
    if cfg.input_kind == "dlcz":
        # c[n] = p^(n-1) (1 - (1-t_w)^n); the second factor, with its
        # power-of-two scale, which cancels, joins W_j.
        loss = cfg._setup_loss.matrix
        herald = _herald_weights(cfg.t_w, n_max)
        u1 = loss[1:, 1:].sum(axis=0) * herald
        u2 = loss[2:, 1:].sum(axis=0) * herald
        exponents = np.arange(n_max, dtype=float)
        return partial(_dlcz_zeta, u1, u2, exponents), read_state_p_upper_bound(cfg.t_w, n_max)

    # c[k] = mu^k / k!, scaled by its largest term so that no mean
    # overflows; W1 is 1 from k = 1 on and W2 from k = 2 on.
    k = np.arange(1, n_max + 1, dtype=float)
    log_factorial = np.array([math.lgamma(j + 1.0) for j in k])
    return partial(_wcs_zeta, k, log_factorial), coherent_mu_upper_bound(n_max)


# The two curves are module-level functions, bound to their tables with
# partial, so that a config that caches one still pickles.
def _dlcz_zeta(u1, u2, exponents, p):
    powers = p[:, None] ** exponents
    return _dot_rows(powers, u2) / _dot_rows(powers, u1)


def _wcs_zeta(k, log_factorial, mu):
    # math.log, as np.log can differ from it in the last bit
    log_mu = np.array([math.log(x) for x in mu.tolist()])[:, None]
    log_terms = k * log_mu - log_factorial
    terms = np.exp(log_terms - np.maximum.reduce(log_terms, axis=1, keepdims=True))
    ge2 = np.add.reduce(terms[:, 1:], axis=1)
    return ge2 / (terms[:, 0] + ge2)


def zeta_to_param(cfg: PipelineConfig, zeta: float) -> float:
    """Invert the multiphoton strength of the cloud-entrance state to the
    source parameter (p or mean photon number) by bracketed bisection on
    the zeta curve that ``cfg`` builds on its first inversion and keeps.

    Raises
    ------
    ValidationError
        If ``zeta`` is not attainable at this truncation (larger n_max
        extends the reachable range).
    NumericalError
        If the bisection's residual check fails.
    """
    return _zeta_to_params(cfg, np.array([zeta])).item()


def _zeta_to_params(cfg: PipelineConfig, zetas: np.ndarray) -> np.ndarray:
    """:func:`zeta_to_param` of each element of the 1-D array ``zetas``."""
    f, hi = cfg._zeta_inverse
    try:
        return bisect_monotone(f, _P_FLOOR, hi, zetas)
    except BracketError as exc:
        raise ValidationError(
            f"multiphoton strength {exc.target} not attainable for {cfg.input_kind} "
            f"at n_max={cfg.blockade.n_max} ({exc})"
        ) from exc


class SweepPoint(NamedTuple):
    zeta: float
    param: float
    g2_in: float
    g2_out: float
    eta: float
    g2_out_lo: float
    g2_out_hi: float


@dataclass(frozen=True)
class SweepResult:
    points: list[SweepPoint]

    def write_csv(self, path) -> None:
        write_table(path, SweepPoint._fields, self.points)


def sweep(cfg: PipelineConfig, zeta_grid, medium: TransferMatrix) -> SweepResult:
    """Evaluate g2_in, g2_out and efficiency over a multiphoton-strength
    grid, with an uncertainty band from the compression-efficiency range.

    Built once per sweep: the pre-blockade thinning for eta_compression
    and for each band edge (the zeta curve is built once per config).
    The grid is evaluated as arrays, each point with the bits that the
    per-point functions give it: one bisection over every point (about
    50 curve evaluations, each a power or exp over points x n_max and two
    dot products per point), the source states, and per thinning two
    matrix-vector products per point (thinning, then medium); no matrix
    is ever multiplied by another.

    A point that fails raises the error that it raises alone: that of the
    first such point, at the first of its checks that fails.
    """
    _check_same_n_max(cfg, medium=medium)
    thinnings = [
        _pre_blockade_matrix(cfg, ec) for ec in (cfg.eta_compression, *cfg.compression_band)
    ]
    zetas = [float(zeta) for zeta in zeta_grid]
    columns = _in_one_batch(lambda z: _sweep_columns(cfg, z, medium, thinnings), zetas)
    return SweepResult([SweepPoint(*row) for row in zip(zetas, *(c.tolist() for c in columns))])


def _in_one_batch(run, values: list[float]):
    """``run`` on the array of ``values``.  If that fails, ``run`` on each
    value alone, in order, so that the error raised is the one that the
    first value to fail raises alone, at the first of its checks that
    fails; the batch's own error only if no value fails alone."""
    try:
        return run(np.array(values))
    except (ValidationError, NumericalError):
        for value in values:
            run(np.array([value]))
        raise


def _sweep_columns(cfg: PipelineConfig, zetas: np.ndarray, medium: TransferMatrix,
                   thinnings: list[TransferMatrix]) -> tuple[np.ndarray, ...]:
    """The columns of :class:`SweepPoint` after zeta, for the points of
    ``zetas``, the stages run in the order of the per-point checks."""
    params = _zeta_to_params(cfg, zetas)
    n_max = cfg.blockade.n_max
    if cfg.input_kind == "dlcz":
        src = _normalized(_read_state_rows(params, cfg.t_w, n_max))
    else:  # the Poisson recurrence runs from each mean's own mode
        src = np.reshape([coherent(mu, n_max).probs for mu in params.tolist()], (-1, n_max + 1))
    out, *edges = (_normalized(_propagate(medium, thin, src)) for thin in thinnings)
    band = [_mean_and_g2(edge)[1] for edge in edges]
    mean_in, g2_in = _mean_and_g2(src)
    mean_out, g2_out = _mean_and_g2(out)
    eta = _efficiency(cfg, mean_in, mean_out)
    return params, g2_in, g2_out, eta, np.minimum(*band), np.maximum(*band)
