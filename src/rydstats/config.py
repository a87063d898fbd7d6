"""Flat ``key = value`` run configuration shared by all CLI commands.

Parsing is strict: unknown keys and out-of-range values are errors with
the offending line number, because a typo in a physics parameter would
otherwise silently change every result.  Command-line flags override file
values; keys not set anywhere fall back to the defaults below (a few are
command-specific and resolved by the CLI).  A key that sets a library
field takes that field's default, so the two cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from ._table import check_line, open_text
from .blockade import BlockadeConfig
from .clicks import DETECTORS, MIN_RESAMPLES, RESAMPLES, ROLE_DETECTORS, WindowSpec
from .errors import ValidationError
from .pipeline import PipelineConfig
from .ratemodel import STORED_P_NR, RateModelParams


def _positive_int(value: int) -> bool:
    return value >= 1


def _non_negative(value: float) -> bool:
    return value >= 0.0  # False for NaN


def _positive_finite(value: float) -> bool:
    return 0.0 < value < math.inf  # False for NaN


def _unit_interval(value: float) -> bool:
    return 0.0 <= value <= 1.0


def _open_unit(value: float) -> bool:
    return 0.0 < value <= 1.0


def _detector_list(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise ValueError("empty detector list")
    return names


def _known_detectors(names: tuple[str, ...]) -> bool:
    return set(names) <= set(DETECTORS)


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("empty list")
    return values


@dataclass(frozen=True)
class _Key:
    parse: Callable[[str], Any]
    default: Any
    check: Callable[[Any], bool] = lambda _: True
    help: str = ""


_KEYS: dict[str, _Key] = {
    # run control
    "seed": _Key(int, BlockadeConfig.rng_seed, _non_negative, "RNG seed for every stochastic step"),
    "threads": _Key(int, 1, _positive_int, "worker threads for the Monte Carlo"),
    "n_max": _Key(int, None, _positive_int,
                  "Fock truncation; unset -> per-command default"),
    # blockade geometry and sampling
    "trials": _Key(int, BlockadeConfig.trials_per_fock, _positive_int,
                   "Monte Carlo trials per Fock state"),
    "cloud_length": _Key(float, BlockadeConfig.cloud_length, _positive_finite,
                         "cloud length (um, FWHM)"),
    "blockade_radius": _Key(float, BlockadeConfig.blockade_radius,
                            lambda v: 0.0 <= v < math.inf, "blockade radius (um)"),
    "medium_scale": _Key(float, 2.5, lambda v: 1.0 <= v < math.inf,
                         "medium stretch for the slow-light variant"),
    # pipeline stages
    "t_losses": _Key(float, PipelineConfig.t_losses, _open_unit, "transmission between the setups"),
    "eta_compression": _Key(float, PipelineConfig.eta_compression, _open_unit,
                            "stored fraction of the pulse"),
    "eta_compression_lo": _Key(float, PipelineConfig.compression_band[0], _open_unit,
                               "uncertainty band, low edge"),
    "eta_compression_hi": _Key(float, PipelineConfig.compression_band[1], _open_unit,
                               "uncertainty band, high edge"),
    "eta_eit": _Key(float, PipelineConfig.eta_eit, _open_unit, "propagation transparency"),
    "eta_r": _Key(float, PipelineConfig.eta_r, _open_unit, "retrieval efficiency"),
    # source / rate model
    "t_w": _Key(float, RateModelParams.t_w, _open_unit, "write-path transmission incl. detection"),
    "t_r": _Key(float, RateModelParams.t_r, _unit_interval, "read-path transmission incl. detection"),
    "eta_a": _Key(float, RateModelParams.eta_a, _unit_interval, "intrinsic read-out efficiency"),
    "p_eg": _Key(float, RateModelParams.p_eg, _unit_interval, "branching ratio of the stray decay"),
    "p_nw": _Key(float, RateModelParams.p_nw, _unit_interval, "write dark-count probability"),
    "p_nr": _Key(float, RateModelParams.p_nr, _unit_interval, "read noise probability"),
    "stored_p_nr": _Key(float, STORED_P_NR, _unit_interval, "read noise after storage"),
    # sweep grids
    "zeta_min": _Key(float, 0.004, _positive_finite, "sweep grid start"),
    "zeta_max": _Key(float, 0.4, _positive_finite, "sweep grid end"),
    "zeta_points": _Key(int, 21, _positive_int, "sweep grid size (log-spaced)"),
    "zeta_values": _Key(_float_list, (0.01, 0.05, 0.5), lambda v: all(map(_positive_finite, v)),
                        "comma list for the distribution-comparison table"),
    "pw_min": _Key(float, 2e-4, _positive_finite, "write-probability grid start"),
    "pw_max": _Key(float, 0.05, _positive_finite, "write-probability grid end"),
    "pw_points": _Key(int, 25, _positive_int, "write-probability grid size"),
    "efficiency_table": _Key(str, None, help="CSV path with measured p_w,eta"),
    # click analysis
    "signal_start_ns": _Key(int, WindowSpec.signal_1[0], _non_negative, "signal window start (ns)"),
    "signal_end_ns": _Key(int, WindowSpec.signal_1[1], _positive_int, "signal window end (ns)"),
    "noise_start_ns": _Key(int, WindowSpec.noise[0], _non_negative, "noise window start (ns)"),
    "noise_end_ns": _Key(int, WindowSpec.noise[1], _positive_int, "noise window end (ns)"),
    "detectors_1": _Key(_detector_list, ROLE_DETECTORS[0], _known_detectors,
                        "detectors for role 1"),
    "detectors_2": _Key(_detector_list, ROLE_DETECTORS[1], _known_detectors,
                        "detectors for role 2"),
    "resamples": _Key(int, RESAMPLES, lambda v: v >= MIN_RESAMPLES, "bootstrap resamples"),
}


@dataclass
class RunConfig:
    """Resolved configuration: file values overlaid with flag overrides."""

    values: dict[str, Any] = field(default_factory=dict)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            spec = _KEYS[name]
        except KeyError:
            raise AttributeError(name) from None
        return self.values.get(name, spec.default)

    def set(self, name: str, value: Any) -> None:
        """Set a parsed value after its range check (flags and file alike)."""
        if name not in _KEYS:
            raise ValidationError(f"unknown configuration key {name!r}")
        if not _KEYS[name].check(value):
            raise ValidationError(f"value out of range for {name}: {value!r}")
        self.values[name] = value


def parse_config_file(path) -> RunConfig:
    """Parse a flat ``key = value`` file with ``#`` comments."""
    cfg = RunConfig()
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = check_line(path, lineno, raw).split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            name, _, text = line.partition("=")
            name = name.strip()
            text = text.strip()
            if name not in _KEYS:
                raise ValidationError(f"{path}:{lineno}: unknown key {name!r}")
            try:
                value = _KEYS[name].parse(text)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad value for {name}: {exc}") from exc
            try:
                cfg.set(name, value)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return cfg


def describe_keys() -> str:
    lines = []
    for name, spec in _KEYS.items():
        default = "unset" if spec.default is None else spec.default
        lines.append(f"  {name:<20} default {default!r:<18} {spec.help}")
    return "\n".join(lines)
