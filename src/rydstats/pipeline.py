"""Full experiment chain: source state -> losses -> blockaded medium.

The stored state is obtained by applying, in order: transmission losses
between the setups (heralded input only; attenuated-laser inputs are
already back-propagated to the cloud entrance), the imperfect pulse
compression into the medium (a beam-splitter loss), half of the linear
propagation losses, and finally the Monte Carlo blockade matrix.  The
stages before the blockade are binomial thinnings, which compose into
one loss matrix.  The second half of the propagation loss and the
retrieval efficiency are linear, so they never change g2 and enter only
the efficiency formula.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from ._roots import BracketError, bisect_monotone
from ._table import write_table
from .blockade import BlockadeConfig, blockade_matrix, slow_light_matrix
from .errors import ValidationError
from .fock import FockDistribution, _poisson_pmf, _zeta, coherent, coherent_mu_upper_bound
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
    # Transmission losses (dlcz only), compression and half the EIT loss
    # are binomial thinnings, and loss(a) o loss(b) = loss(ab).
    t = cfg.t_losses if cfg.input_kind == "dlcz" else 1.0
    return loss_matrix(math.sqrt(cfg.eta_eit) * eta_compression * t, n_max)


def _propagate(
    medium: TransferMatrix, thinning: TransferMatrix, probs: np.ndarray
) -> FockDistribution:
    # Two matrix-vector products.  The matrix-matrix product medium @
    # thinning does n_max + 1 times the arithmetic, and at n_max = 100
    # OpenBLAS hands it to its worker threads, which costs milliseconds.
    return FockDistribution(medium.matrix @ (thinning.matrix @ probs))


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
    elif medium.n_max != n_max:
        raise ValidationError(
            f"medium matrix n_max={medium.n_max} does not match input n_max={n_max}"
        )
    ec = cfg.eta_compression if eta_compression is None else eta_compression
    return _propagate(medium, _pre_blockade_matrix(cfg, n_max, ec), input_dist.probs)


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
    out = post_blockade_distribution(cfg, input_dist, medium, eta_compression)
    return _efficiency(cfg, input_dist, out)


def _efficiency(cfg: PipelineConfig, input_dist: FockDistribution, out: FockDistribution) -> float:
    """Efficiency from the input state and its post-blockade state."""
    mean_in = input_dist.mean_photons()
    if mean_in <= 0.0:
        raise ValidationError("efficiency undefined for a vacuum input")
    t = cfg.t_losses if cfg.input_kind == "dlcz" else 1.0
    return cfg.eta_r * math.sqrt(cfg.eta_eit) * out.mean_photons() / (t * mean_in)


def _zeta_curve(cfg: PipelineConfig, n_max: int):
    """Multiphoton strength of the cloud-entrance state as a function of
    the source parameter, and the largest parameter the truncation at
    ``n_max`` holds."""
    if cfg.input_kind == "dlcz":
        loss = loss_matrix(cfg.t_losses, n_max).matrix

        def f(p):
            terms = loss @ _read_state_terms(p, cfg.t_w, n_max)
            return _zeta(terms / terms.sum())

        return f, read_state_p_upper_bound(cfg.t_w, n_max)

    def f(mu):
        terms = _poisson_pmf(mu, n_max)
        return _zeta(terms / terms.sum())

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
    return _invert_zeta(cfg, zeta, n_max, *_zeta_curve(cfg, n_max))


def _invert_zeta(cfg: PipelineConfig, zeta: float, n_max: int, f, hi: float) -> float:
    try:
        return bisect_monotone(f, _PARAM_FLOOR, hi, zeta, f_tol=1e-10)
    except BracketError as exc:
        raise ValidationError(
            f"multiphoton strength {zeta} not attainable for {cfg.input_kind} "
            f"at n_max={n_max} ({exc})"
        ) from exc


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
) -> SweepResult:
    """Evaluate g2_in, g2_out and efficiency over a multiphoton-strength
    grid, with an uncertainty band from the compression-efficiency range.

    Built once per sweep: the zeta curve and its truncation bound, the
    medium, and the pre-blockade thinning for eta_compression and for each
    band edge.  A grid point costs one inversion and, per thinning, two
    matrix-vector products (thinning, then medium); no matrix is ever
    multiplied by another.
    """
    n_max = cfg.blockade.n_max
    f, hi = _zeta_curve(cfg, n_max)
    # Bisection assumes zeta(param) is monotone; scan before sweeping.
    values = [f(x) for x in np.linspace(_PARAM_FLOOR, hi, 50)]
    if np.any(np.diff(values) < -1e-12):
        raise ValidationError(
            "multiphoton strength is not monotone in the source parameter; "
            "cannot invert the requested grid"
        )
    if medium is None:
        medium = medium_matrix(cfg)
    elif medium.n_max != n_max:
        raise ValidationError(
            f"medium matrix n_max={medium.n_max} does not match config n_max={n_max}"
        )
    thinnings = [
        _pre_blockade_matrix(cfg, n_max, ec)
        for ec in (cfg.eta_compression, *cfg.compression_band)
    ]
    points = []
    for zeta in zeta_grid:
        param = _invert_zeta(cfg, float(zeta), n_max, f, hi)
        src = source_distribution(cfg, param, n_max)
        out, *edges = (_propagate(medium, thin, src.probs) for thin in thinnings)
        band = sorted(edge.g2() for edge in edges)
        points.append(SweepPoint(
            float(zeta), param, src.g2(), out.g2(), _efficiency(cfg, src, out), *band
        ))
    return SweepResult(cfg.input_kind, points)
