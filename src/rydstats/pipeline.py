"""Full experiment chain: source state -> losses -> blockaded medium.

The stored state is obtained by applying, in order: transmission losses
between the setups (heralded input only; attenuated-laser inputs are
already back-propagated to the cloud entrance), the imperfect pulse
compression into the medium (a beam-splitter loss), half of the linear
propagation losses, and finally the Monte Carlo blockade matrix.  The
second half of the propagation loss and the retrieval efficiency are
linear, so they never change g2 and enter only the efficiency formula.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np
from scipy.stats import poisson

from ._roots import BracketError, bisect_monotone
from ._table import write_table
from .blockade import BlockadeConfig, blockade_matrix, slow_light_matrix
from .errors import ValidationError
from .fock import FockDistribution, coherent, coherent_mu_upper_bound
from .source import (
    SourceModel,
    _read_state_terms,
    conditional_read_state,
    read_state_p_upper_bound,
)
from .transfer import TransferMatrix, loss_matrix

INPUT_KINDS = ("dlcz", "wcs")

_PARAM_FLOOR = 1e-12


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to push one input state through the experiment.

    ``input_kind`` selects the source: "dlcz" for the heralded read photon
    (parametrized by excitation probability p, with write transmission
    ``t_w``), "wcs" for an attenuated laser pulse (parametrized by its
    mean photon number at the cloud entrance).
    """

    input_kind: str = "dlcz"
    t_w: float = 0.21
    t_losses: float = 0.15
    eta_compression: float = 0.6
    eta_eit: float = 0.6
    eta_r: float = 0.41
    compression_band: tuple[float, float] = (0.45, 0.75)
    use_slow_light: bool = False
    medium_scale: float = 2.5
    blockade: BlockadeConfig = field(default_factory=BlockadeConfig)

    def __post_init__(self):
        if self.input_kind not in INPUT_KINDS:
            raise ValidationError(
                f"input kind must be one of {INPUT_KINDS}, got {self.input_kind!r}"
            )
        for name in ("t_losses", "eta_compression", "eta_eit", "eta_r", "t_w"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValidationError(f"{name} must lie in (0, 1], got {value}")
        lo, hi = self.compression_band
        if not (0.0 < lo <= hi <= 1.0):
            raise ValidationError(f"compression band must satisfy 0 < lo <= hi <= 1, got {self.compression_band}")


def medium_matrix(cfg: PipelineConfig, threads: int = 1) -> TransferMatrix:
    """The blockade matrix for this configuration (stretched medium when
    the slow-light variant is selected)."""
    if cfg.use_slow_light:
        return slow_light_matrix(cfg.blockade, cfg.medium_scale, threads=threads)
    return blockade_matrix(cfg.blockade, threads=threads)


def source_distribution(cfg: PipelineConfig, param: float, n_max: int | None = None) -> FockDistribution:
    """The input state fed to the chain: heralded read state at excitation
    probability ``param``, or Poissonian state with mean ``param``."""
    n_max = cfg.blockade.n_max if n_max is None else n_max
    if cfg.input_kind == "dlcz":
        return conditional_read_state(SourceModel(param, cfg.t_w), n_max)
    return coherent(param, n_max)


def cloud_input_distribution(cfg: PipelineConfig, param: float, n_max: int | None = None) -> FockDistribution:
    """The state right before the cloud: transmission losses applied for
    the heralded input, the Poissonian input unchanged (its mean is
    already back-propagated to that plane).  Multiphoton strength is
    quoted for this state."""
    n_max = cfg.blockade.n_max if n_max is None else n_max
    src = source_distribution(cfg, param, n_max)
    if cfg.input_kind == "dlcz":
        return loss_matrix(cfg.t_losses, n_max).apply(src)
    return src


def _pre_blockade_matrix(cfg: PipelineConfig, n_max: int, eta_compression: float) -> TransferMatrix:
    chain = loss_matrix(math.sqrt(cfg.eta_eit), n_max).compose(
        loss_matrix(eta_compression, n_max)
    )
    if cfg.input_kind == "dlcz":
        chain = chain.compose(loss_matrix(cfg.t_losses, n_max))
    return chain


def post_blockade_distribution(
    cfg: PipelineConfig,
    input_dist: FockDistribution,
    medium: TransferMatrix | None = None,
    eta_compression: float | None = None,
) -> FockDistribution:
    """State after the blockaded medium (before retrieval and the second
    half of the propagation losses)."""
    n_max = input_dist.n_max
    if medium is None:
        if n_max != cfg.blockade.n_max:
            raise ValidationError(
                f"input n_max={n_max} does not match blockade n_max={cfg.blockade.n_max}"
            )
        medium = medium_matrix(cfg)
    ec = cfg.eta_compression if eta_compression is None else eta_compression
    pre = _pre_blockade_matrix(cfg, n_max, ec)
    return medium.compose(pre).apply(input_dist)


def g2_after_storage(
    cfg: PipelineConfig,
    input_dist: FockDistribution,
    medium: TransferMatrix | None = None,
    eta_compression: float | None = None,
) -> float:
    """g2 of the retrieved light.  The linear stages after the blockade
    cannot change it, so it is evaluated right after the medium."""
    return post_blockade_distribution(cfg, input_dist, medium, eta_compression).g2()


def efficiency(
    cfg: PipelineConfig,
    input_dist: FockDistribution,
    medium: TransferMatrix | None = None,
    eta_compression: float | None = None,
) -> float:
    """Storage-and-retrieval efficiency: mean retrieved photons over mean
    photons at the cloud entrance.

    The retrieved mean carries the retrieval efficiency and the remaining
    half of the propagation losses on top of the post-blockade state; the
    input mean for the heralded source is the source mean times the
    transmission to the cloud.
    """
    mean_in = input_dist.mean_photons()
    if mean_in <= 0.0:
        raise ValidationError("efficiency undefined for a vacuum input")
    out = post_blockade_distribution(cfg, input_dist, medium, eta_compression)
    numerator = cfg.eta_r * math.sqrt(cfg.eta_eit) * out.mean_photons()
    if cfg.input_kind == "dlcz":
        return numerator / (cfg.t_losses * mean_in)
    return numerator / mean_in


def _zeta_of_vector(vec: np.ndarray) -> float:
    p_ge1 = vec[1:].sum()
    return float(vec[2:].sum() / p_ge1) if p_ge1 > 0 else 0.0


def _zeta_curve(cfg: PipelineConfig, n_max: int):
    """Multiphoton strength of the cloud-entrance state as a function of
    the source parameter, and the largest parameter the truncation at
    ``n_max`` holds."""
    if cfg.input_kind == "dlcz":
        loss = loss_matrix(cfg.t_losses, n_max).matrix

        def f(p):
            return _zeta_of_vector(loss @ _read_state_terms(p, cfg.t_w, n_max))

        return f, read_state_p_upper_bound(cfg.t_w, n_max)
    k = np.arange(n_max + 1)

    def f(mu):
        return _zeta_of_vector(poisson.pmf(k, mu))

    return f, coherent_mu_upper_bound(n_max)


def zeta_to_param(cfg: PipelineConfig, zeta: float, n_max: int | None = None) -> float:
    """Invert the multiphoton strength of the cloud-entrance state to the
    source parameter (p or mean photon number) by bracketed bisection.

    Raises
    ------
    ValidationError
        If ``zeta`` is not attainable at this truncation (larger n_max
        extends the reachable range).
    """
    n_max = cfg.blockade.n_max if n_max is None else n_max
    f, hi = _zeta_curve(cfg, n_max)
    try:
        return bisect_monotone(f, _PARAM_FLOOR, hi, zeta, f_tol=1e-10)
    except BracketError as exc:
        raise ValidationError(
            f"multiphoton strength {zeta} not attainable for {cfg.input_kind} "
            f"at n_max={n_max} ({exc})"
        ) from exc


def _assert_monotone_zeta(cfg: PipelineConfig, n_max: int) -> None:
    # Bisection assumes zeta(param) is monotone; scan before sweeping.
    f, hi = _zeta_curve(cfg, n_max)
    values = [f(x) for x in np.linspace(_PARAM_FLOOR, hi, 50)]
    if np.any(np.diff(values) < -1e-12):
        raise ValidationError(
            "multiphoton strength is not monotone in the source parameter; "
            "cannot invert the requested grid"
        )


@dataclass(frozen=True)
class SweepPoint:
    zeta: float
    param: float
    g2_in: float
    g2_out: float
    eta: float
    g2_out_lo: float
    g2_out_hi: float


@dataclass(frozen=True)
class SweepResult:
    input_kind: str
    points: list[SweepPoint]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(pt, name) for pt in self.points])

    def write_csv(self, path) -> None:
        header = [f.name for f in fields(SweepPoint)]
        write_table(path, header, (astuple(pt) for pt in self.points))


def sweep(
    cfg: PipelineConfig,
    zeta_grid,
    medium: TransferMatrix | None = None,
    threads: int = 1,
) -> SweepResult:
    """Evaluate g2_in, g2_out and efficiency over a multiphoton-strength
    grid, with an uncertainty band from the compression-efficiency range.

    The Monte Carlo medium matrix is computed once and shared by all grid
    points (and both band edges).
    """
    n_max = cfg.blockade.n_max
    _assert_monotone_zeta(cfg, n_max)
    if medium is None:
        medium = medium_matrix(cfg, threads=threads)
    elif medium.n_max != n_max:
        raise ValidationError(
            f"medium matrix n_max={medium.n_max} does not match config n_max={n_max}"
        )
    lo, hi = cfg.compression_band
    points = []
    for zeta in zeta_grid:
        param = zeta_to_param(cfg, zeta, n_max)
        src = source_distribution(cfg, param, n_max)
        g2_in = src.g2()
        g2_out = g2_after_storage(cfg, src, medium)
        eta = efficiency(cfg, src, medium)
        band = sorted(
            g2_after_storage(cfg, src, medium, eta_compression=ec) for ec in (lo, hi)
        )
        points.append(
            SweepPoint(float(zeta), param, g2_in, g2_out, eta, band[0], band[1])
        )
    return SweepResult(cfg.input_kind, points)
