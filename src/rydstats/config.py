"""Flat ``key = value`` run configuration shared by all CLI commands.

Parsing is strict: unknown keys and out-of-range values are errors with
the offending line number, because a typo in a physics parameter would
otherwise silently change every result.  Command-line flags override file
values; keys not set anywhere fall back to the defaults below (a few are
command-specific and resolved by the CLI).  A key that sets a library
value takes its default and its range from the library code that reads
it; only the keys that the CLI alone reads have a range of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from ._table import check_line, open_text
from .blockade import BlockadeConfig, _stretched
from .clicks import (MIN_RESAMPLES, RESAMPLES, ROLE_DETECTORS, WindowSpec, _check_detectors,
                     _check_window)
from .errors import _MAX_DOUBLES, ValidationError, _check_count
from .pipeline import PipelineConfig
from .ratemodel import STORED_P_NR, RateModelParams


def _rule(holds: Callable[[Any], bool]) -> Callable[[Any], None]:
    """A range of a key that only the CLI reads, raising like the library."""
    def check(value) -> None:
        if not holds(value):
            raise ValidationError(value)
    return check


# numpy sizes a grid from its point count rounded to a double
_grid_points = _rule(lambda v: 1 <= v <= _MAX_DOUBLES and float(v) <= _MAX_DOUBLES)
_positive_finite = _rule(lambda v: 0.0 < v < math.inf)  # NaN fails


def _detector_list(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise ValueError("empty detector list")
    return names


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("empty list")
    return values


@dataclass(frozen=True)
class _Key:
    parse: Callable[[str], Any]
    default: Any
    # Raises a ValidationError where the value is out of range: for a key
    # that sets a library value, the library's own check of that value.
    check: Callable[[Any], object] = lambda _: None
    help: str = ""


def _field(parse, owner, name: str, help: str, **given) -> _Key:
    """The key of ``owner``'s field ``name``: its default, and the values
    that ``owner`` accepts there with ``given`` in its other fields."""
    return _Key(parse, getattr(owner, name), lambda v: owner(**given, **{name: v}), help)


_KEYS: dict[str, _Key] = {
    # run control
    "seed": _field(int, BlockadeConfig, "rng_seed", "RNG seed for every stochastic step"),
    "threads": _Key(int, 1, lambda v: _check_count("threads", v, 1),
                    "worker threads for the Monte Carlo"),
    "n_max": _Key(int, None, lambda v: BlockadeConfig(n_max=v),
                  "Fock truncation; unset -> per-command default"),
    # blockade geometry and sampling
    "trials": _field(int, BlockadeConfig, "trials_per_fock", "Monte Carlo trials per Fock state"),
    "cloud_length": _field(float, BlockadeConfig, "cloud_length", "cloud length (um, FWHM)"),
    "blockade_radius": _field(float, BlockadeConfig, "blockade_radius", "blockade radius (um)"),
    # a scale that the stretch accepts keeps a 1 um cloud finite
    "medium_scale": _Key(float, 2.5, lambda v: _stretched(BlockadeConfig(cloud_length=1.0), v),
                         "medium stretch for the slow-light variant"),
    # pipeline stages; each end of the band is checked as a band of one value
    "t_losses": _field(float, PipelineConfig, "t_losses", "transmission between the setups"),
    "eta_compression": _field(float, PipelineConfig, "eta_compression",
                              "stored fraction of the pulse"),
    "eta_compression_lo": _Key(float, PipelineConfig.compression_band[0],
                               lambda v: PipelineConfig(compression_band=(v, v)),
                               "uncertainty band, low edge"),
    "eta_compression_hi": _Key(float, PipelineConfig.compression_band[1],
                               lambda v: PipelineConfig(compression_band=(v, v)),
                               "uncertainty band, high edge"),
    "eta_eit": _field(float, PipelineConfig, "eta_eit", "propagation transparency"),
    "eta_r": _field(float, PipelineConfig, "eta_r", "retrieval efficiency"),
    # source / rate model; with_storage puts stored_p_nr into p_nr
    "t_w": _field(float, RateModelParams, "t_w", "write-path transmission incl. detection", p=0.0),
    "t_r": _field(float, RateModelParams, "t_r", "read-path transmission incl. detection", p=0.0),
    "eta_a": _field(float, RateModelParams, "eta_a", "intrinsic read-out efficiency", p=0.0),
    "p_eg": _field(float, RateModelParams, "p_eg", "branching ratio of the stray decay", p=0.0),
    "p_nw": _field(float, RateModelParams, "p_nw", "write dark-count probability", p=0.0),
    "p_nr": _field(float, RateModelParams, "p_nr", "read noise probability", p=0.0),
    "stored_p_nr": _Key(float, STORED_P_NR, lambda v: RateModelParams(p=0.0, p_nr=v),
                        "read noise after storage"),
    # sweep grids
    "zeta_min": _Key(float, 0.004, _positive_finite, "sweep grid start"),
    "zeta_max": _Key(float, 0.4, _positive_finite, "sweep grid end"),
    "zeta_points": _Key(int, 21, _grid_points, "sweep grid size (log-spaced)"),
    "zeta_values": _Key(_float_list, (0.01, 0.05, 0.5),
                        _rule(lambda v: all(0.0 < x < math.inf for x in v)),
                        "comma list for the distribution-comparison table"),
    "pw_min": _Key(float, 2e-4, _positive_finite, "write-probability grid start"),
    "pw_max": _Key(float, 0.05, _positive_finite, "write-probability grid end"),
    "pw_points": _Key(int, 25, _grid_points, "write-probability grid size"),
    "efficiency_table": _Key(str, None, help="CSV path with measured p_w,eta"),
    # click analysis; a window start or end as that of a window 1 ns long
    "signal_start_ns": _Key(int, WindowSpec.signal_1[0], lambda v: _check_window("", (v, v + 1)),
                            "signal window start (ns)"),
    "signal_end_ns": _Key(int, WindowSpec.signal_1[1], lambda v: _check_window("", (v - 1, v)),
                          "signal window end (ns)"),
    "noise_start_ns": _Key(int, WindowSpec.noise[0], lambda v: _check_window("", (v, v + 1)),
                           "noise window start (ns)"),
    "noise_end_ns": _Key(int, WindowSpec.noise[1], lambda v: _check_window("", (v - 1, v)),
                         "noise window end (ns)"),
    "detectors_1": _Key(_detector_list, ROLE_DETECTORS[0], _check_detectors,
                        "detectors for role 1"),
    "detectors_2": _Key(_detector_list, ROLE_DETECTORS[1], _check_detectors,
                        "detectors for role 2"),
    "resamples": _Key(int, RESAMPLES, lambda v: _check_count("resamples", v, MIN_RESAMPLES),
                      "bootstrap resamples"),
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
        try:
            _KEYS[name].check(value)
        except ValidationError:
            raise ValidationError(f"value out of range for {name}: {value!r}") from None
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
