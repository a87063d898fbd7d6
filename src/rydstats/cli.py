"""Command-line front end.

Commands write CSV tables (curves, matrices) and JSON reports (scalars)
into the output directory.  Every command is deterministic given its
configuration and seed: re-runs produce byte-identical files, regardless
of ``--threads``.

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from ._table import read_table, write_table
from .blockade import (
    CHUNK_TRIALS,
    EXACT_MAX_RADII,
    BlockadeConfig,
    _stretched,
    blockade_matrix,
    exact_pair_survival,
)
from .clicks import ClickStream, WindowSpec, analysis_report, count_trials
from .config import _KEYS, RunConfig, _float_list, describe_keys, parse_config_file
from .errors import NumericalError, ValidationError
from .fock import DEFAULT_N_MAX
from .pipeline import (
    INPUT_KINDS,
    PipelineConfig,
    cloud_input_distribution,
    medium_matrix,
    sweep,
    zeta_to_param,
)
from .ratemodel import (
    EfficiencyTable,
    RateModelParams,
    _excitation_probability,
    fit_p_eg,
    predict_cross_correlation,
    predict_probabilities,
    with_storage,
)

FIGURES = ("fig3", "fig4", "figS3", "figS5")

#: Truncation defaults when the config leaves n_max unset.  The sweep
#: figures need room for the heralded source's geometric tail at large
#: multiphoton strength; the distribution table reaches even higher.
N_MAX_DEFAULTS = {"blockade": DEFAULT_N_MAX, "fig3": 100, "fig4": 100, "figS5": 130}

_DEFAULT_EFFICIENCY = 0.2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _flag_type(parse, form: str):
    """``parse`` as an argparse type whose error names the expected ``form``."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
    return convert


def _int_pair(text: str) -> tuple[int, int]:
    start, end = text.split(",")
    return int(start), int(end)


_WINDOW = _flag_type(_int_pair, "'start,end'")
_NUMBERS = _flag_type(_float_list, "comma-separated numbers")
_DETECTORS = _flag_type(_KEYS["detectors_1"].parse, "comma-separated detector names")


#: Flags of ``reproduce`` that only some figures read: dest -> (flag, figures).
_FIGURE_FLAGS = {
    "zeta_values": ("--zeta", ("figS5",)),
    "zeta_range": ("--zeta-range", ("fig3", "fig4")),
    "slow_light": ("--slow-light", ("fig3", "fig4")),
    "efficiency_table": ("--efficiency-table", ("figS3",)),
}


def _check_flags(args) -> None:
    """Reject a flag that the chosen command would ignore.  Config-file
    keys are shared by every command and are not checked here."""
    if args.command == "blockade" and args.medium_scale is not None and not args.slow_light:
        raise _UsageError("--medium-scale needs --slow-light")
    if args.command == "reproduce":
        for dest, (flag, figures) in _FIGURE_FLAGS.items():
            if getattr(args, dest) not in (None, False) and args.figure not in figures:
                raise _UsageError(
                    f"{flag} is read only by {' and '.join(figures)}, not {args.figure}")


#: Flags that set several configuration keys at once, in order.
_MULTI_KEY_FLAGS = {
    "window": ("signal_start_ns", "signal_end_ns"),
    "noise_window": ("noise_start_ns", "noise_end_ns"),
    "zeta_range": ("zeta_min", "zeta_max", "zeta_points"),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="rydstats",
        description="Photon-number statistics of heralded light in a "
        "partially blockaded medium.",
        epilog="Configuration keys (key = value file, '#' comments):\n" + describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", type=Path, help="key = value configuration file")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--threads", type=int, help="Monte Carlo worker threads; "
                        f"they share out the {CHUNK_TRIALS}-trial chunks")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("blockade", help="run the blockade Monte Carlo, write the "
                       "transfer matrix and per-column statistics")
    b.add_argument("--trials", type=int, help="trials per Fock state")
    b.add_argument("--rb", type=float, dest="blockade_radius", help="blockade radius (um)")
    b.add_argument("-L", "--cloud-length", type=float, help="cloud length (um)")
    b.add_argument("--n", "--n-max", type=int, dest="n_max",
                   help="largest Fock state to simulate")
    b.add_argument("--slow-light", action="store_true",
                   help="stretch the medium for the no-storage variant")
    b.add_argument("--medium-scale", type=float, help="stretch factor (with --slow-light)")

    g = sub.add_parser("g2", help="analyze a click stream: raw and noise-corrected "
                       "correlation with bootstrap errors")
    g.add_argument("clicks", type=Path, help="click CSV (see README for the format)")
    g.add_argument("--window", type=_WINDOW, help="signal window 'start,end' in ns")
    g.add_argument("--window-2", type=_WINDOW, help="role-2 signal window (default: same)")
    g.add_argument("--noise-window", type=_WINDOW, help="noise window 'start,end' in ns")
    g.add_argument("--detectors-1", type=_DETECTORS, help="comma list of detectors for role 1")
    g.add_argument("--detectors-2", type=_DETECTORS, help="comma list of detectors for role 2")
    g.add_argument("--resamples", type=int, help="bootstrap resamples")

    r = sub.add_parser(
        "reproduce", help="emit model curves as CSV tables",
        description="fig3 and fig4 use the exact blockade medium for clouds up to "
        f"{EXACT_MAX_RADII:g} blockade radii: the default geometry and the slow-light "
        "one. Their outputs then do not depend on --trials, --seed or --threads; a "
        "longer cloud falls back to the Monte Carlo, which reads all three.")
    r.add_argument("figure", choices=FIGURES)
    r.add_argument("--trials", type=int,
                   help="Monte Carlo trials per Fock state (read by fig3/fig4 only, "
                   "for a cloud that the exact medium does not cover)")
    r.add_argument("--n-max", type=int, dest="n_max",
                   help="Fock truncation (read by fig3/fig4/figS5; figS3 ignores it)")
    r.add_argument("--zeta", type=_NUMBERS, dest="zeta_values",
                   help="comma list of multiphoton strengths (figS5)")
    r.add_argument("--zeta-range", type=_NUMBERS, metavar="MIN,MAX,POINTS",
                   help="log-spaced sweep grid (fig3/fig4)")
    r.add_argument("--efficiency-table", type=_KEYS["efficiency_table"].parse,
                   help="measured p_w,eta CSV (figS3); default: constant "
                   f"{_DEFAULT_EFFICIENCY}")
    r.add_argument("--slow-light", action="store_true",
                   help="use the stretched-medium variant (fig3/fig4)")

    f = sub.add_parser("fit-peg", help="fit the branching ratio to measured "
                       "(p_w, p_r|w) pairs")
    f.add_argument("data", type=Path, help="CSV with header p_w,p_r_given_w")
    return parser


def _zeta_range(values: tuple[float, ...]) -> tuple[float, float, int]:
    if len(values) != 3:
        raise ValidationError("--zeta-range expects MIN,MAX,POINTS")
    lo, hi, points = values
    if not (points.is_integer() and points >= 1):
        raise ValidationError(f"--zeta-range POINTS must be an integer >= 1, got {points:g}")
    return lo, hi, int(points)


def _load_config(args) -> RunConfig:
    """The config file overlaid with every flag that names a config key;
    each value goes through ``RunConfig.set`` and its range check."""
    cfg = parse_config_file(args.config) if args.config else RunConfig()
    values = [(name, getattr(args, name, None)) for name in _KEYS]
    for flag, keys in _MULTI_KEY_FLAGS.items():
        parts = getattr(args, flag, None)
        if parts is not None:
            values += zip(keys, _zeta_range(parts) if flag == "zeta_range" else parts)
    for name, value in values:
        if value is not None:
            cfg.set(name, value)
    return cfg


def _blockade_config(cfg: RunConfig, default_n_max: int,
                     slow_light: bool = False) -> BlockadeConfig:
    """The medium: the slow-light variant is the cloud stretched by
    ``medium_scale``."""
    n_max = cfg.n_max if cfg.n_max is not None else default_n_max
    bcfg = cfg.build(BlockadeConfig, n_max=n_max)
    return _stretched(bcfg, cfg.medium_scale) if slow_light else bcfg


def _write_json(path: Path, payload: dict) -> None:
    """Write a report; a NaN or inf in it is a numerical failure, since
    JSON has no literal for either."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path.name}: {exc}") from exc
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _say(path: Path) -> None:
    print(f"wrote {path}")


def cmd_blockade(args, cfg: RunConfig, out: Path) -> None:
    bcfg = _blockade_config(cfg, N_MAX_DEFAULTS["blockade"], args.slow_light)
    matrix = blockade_matrix(bcfg, threads=cfg.threads)

    matrix_path = out / "blockade_matrix.csv"
    matrix.to_csv(matrix_path)
    _say(matrix_path)

    k = np.arange(bcfg.n_max + 1)
    m = matrix.matrix
    ses = np.sqrt(m * (1.0 - m) / bcfg.trials_per_fock)  # binomial, per entry
    columns = []
    for n in range(bcfg.n_max + 1):
        probs = m[:, n]
        mean = float(np.dot(k, probs))
        var = float(np.dot(k**2, probs) - mean**2)
        columns.append({
            "n": int(n),
            "mean_survivors": mean,
            "se_mean": float(np.sqrt(max(var, 0.0) / bcfg.trials_per_fock)),
            "probs": [float(x) for x in probs[: n + 1]],
            "standard_errors": [float(x) for x in ses[: n + 1, n]],
        })
    oracle_expected = exact_pair_survival(bcfg.blockade_radius, bcfg.cloud_length)
    oracle_se = float(
        np.sqrt(oracle_expected * (1 - oracle_expected) / bcfg.trials_per_fock)
    )
    estimate = float(m[2, 2]) if bcfg.n_max >= 2 else None
    summary = {
        "config": {
            "cloud_length_um": cfg.cloud_length,
            "blockade_radius_um": bcfg.blockade_radius,
            "trials_per_fock": bcfg.trials_per_fock,
            "seed": bcfg.rng_seed,
            "n_max": bcfg.n_max,
            "slow_light": bool(args.slow_light),
            "medium_scale": cfg.medium_scale if args.slow_light else 1.0,
        },
        "columns": columns,
        "pair_survival_check": {
            "analytic": oracle_expected,
            "estimate": estimate,
            "standard_error": oracle_se,
            "z_score": None if estimate is None or oracle_se == 0.0
            else (estimate - oracle_expected) / oracle_se,
        },
    }
    summary_path = out / "blockade_summary.json"
    _write_json(summary_path, summary)
    _say(summary_path)


def cmd_g2(args, cfg: RunConfig, out: Path) -> None:
    windows = WindowSpec(
        signal_1=(cfg.signal_start_ns, cfg.signal_end_ns),
        signal_2=args.window_2,
        noise=(cfg.noise_start_ns, cfg.noise_end_ns),
    )
    stream = ClickStream.read_csv(args.clicks)  # its errors name the file
    try:
        data = count_trials(stream, windows, cfg.detectors_1, cfg.detectors_2)
        del stream  # the stream's arrays are freed before the bootstrap
        report = analysis_report(data, resamples=cfg.resamples, seed=cfg.seed)
    except (ValidationError, NumericalError) as exc:
        raise type(exc)(f"{args.clicks}: {exc}") from None
    report["source_file"] = str(args.clicks)
    report["detectors_1"] = list(cfg.detectors_1)
    report["detectors_2"] = list(cfg.detectors_2)
    report_path = out / "g2_report.json"
    _write_json(report_path, report)
    _say(report_path)


def _pipeline_config(cfg: RunConfig, kind: str, n_max: int, slow_light: bool) -> PipelineConfig:
    # the t_w key sets RateModelParams.t_w; the pipeline's is the same value
    return cfg.build(PipelineConfig, input_kind=kind, t_w=cfg.t_w,
                     compression_band=(cfg.eta_compression_lo, cfg.eta_compression_hi),
                     blockade=_blockade_config(cfg, n_max, slow_light))


def _rate_model(cfg: RunConfig) -> RateModelParams:
    """Rate-model parameters from the config, at p = 0."""
    return cfg.build(RateModelParams, p=0.0)


def _log_grid(cfg: RunConfig, name: str) -> np.ndarray:
    """The log-spaced grid of the keys ``<name>_min``, ``<name>_max`` and
    ``<name>_points``.  Near the largest double geomspace's powers
    overflow, with a warning, although it sets both end points exactly."""
    lo, hi, points = (getattr(cfg, f"{name}_{end}") for end in ("min", "max", "points"))
    if not 0 < lo < hi:
        raise ValidationError(f"{name} grid needs 0 < {name}_min < {name}_max, got {lo}, {hi}")
    with np.errstate(over="ignore"):
        grid = np.geomspace(lo, hi, points)
    if not np.all(np.isfinite(grid)):
        raise ValidationError(f"log-spaced grid from {lo} to {hi} overflows")
    return grid


def _sweep_figure(args, cfg: RunConfig, out: Path, figure: str) -> None:
    grid = _log_grid(cfg, "zeta")
    configs = [_pipeline_config(cfg, kind, N_MAX_DEFAULTS[figure], args.slow_light)
               for kind in INPUT_KINDS]
    # The medium does not depend on the input kind.
    medium = medium_matrix(configs[0], threads=cfg.threads)
    for pcfg in configs:
        result = sweep(pcfg, grid, medium)
        path = out / f"{figure}_{pcfg.input_kind}.csv"
        result.write_csv(path)
        _say(path)


def _figs3(args, cfg: RunConfig, out: Path) -> None:
    if cfg.efficiency_table:
        table = EfficiencyTable.from_csv(cfg.efficiency_table)
    else:
        table = EfficiencyTable.constant(_DEFAULT_EFFICIENCY)
    base = _rate_model(cfg)
    grid = _log_grid(cfg, "pw")
    columns = ("p_w", "p", "g2wr_no_storage", "g2wr_storage", "g2wr_no_storage_noise_free",
               "g2wr_storage_noise_free")
    rows = []
    for p_w, p in zip(grid, _excitation_probability(grid, base)):
        plain = replace(base, p=p)
        stored = with_storage(plain, table, stored_p_nr=cfg.stored_p_nr)
        models = (plain, stored, replace(plain, p_nr=0.0), replace(stored, p_nr=0.0))
        row = [p_w, p]
        for column, params in zip(columns[2:], models):
            try:  # a CSV cannot hold the undefined value
                row.append(predict_cross_correlation(params))
            except ValidationError as exc:
                raise ValidationError(f"{column} at p_w={p_w}: {exc}") from None
        rows.append(row)
    path = out / "figS3_cross_correlation.csv"
    write_table(path, columns, rows)
    _say(path)


def _figs5(args, cfg: RunConfig, out: Path) -> None:
    columns = {}
    for kind in INPUT_KINDS:
        pcfg = _pipeline_config(cfg, kind, N_MAX_DEFAULTS["figS5"], slow_light=False)
        for zeta in cfg.zeta_values:
            dist = cloud_input_distribution(pcfg, zeta_to_param(pcfg, zeta))
            columns[f"{kind}_zeta_{zeta:g}"] = dist.probs
    path = out / "figS5_distributions.csv"
    rows = enumerate(zip(*columns.values()))
    write_table(path, ["k", *columns], ((k, *row) for k, row in rows))
    _say(path)


def cmd_reproduce(args, cfg: RunConfig, out: Path) -> None:
    if args.figure in ("fig3", "fig4"):
        _sweep_figure(args, cfg, out, args.figure)
    elif args.figure == "figS3":
        _figs3(args, cfg, out)
    else:
        _figs5(args, cfg, out)


def cmd_fit_peg(args, cfg: RunConfig, out: Path) -> None:
    data = read_table(args.data, ("p_w", "p_r_given_w"))
    base = _rate_model(cfg)
    # A bare warning line: Python's format would show this file's path and line.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        p_eg, residual = fit_p_eg(data[:, 0], data[:, 1], base)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    fitted = replace(base, p_eg=p_eg)
    predicted = [predict_probabilities(replace(fitted, p=p)).p_r_given_w
                 for p in _excitation_probability(data[:, 0], base)]
    payload = {
        "p_eg": p_eg,
        "residual_norm": residual,
        "n_rows": len(data),
        "residuals": [float(m - p) for m, p in zip(data[:, 1], predicted)],
    }
    path = out / "p_eg_fit.json"
    _write_json(path, payload)
    _say(path)


_COMMANDS = {
    "blockade": cmd_blockade,
    "g2": cmd_g2,
    "reproduce": cmd_reproduce,
    "fit-peg": cmd_fit_peg,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_flags(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = _load_config(args)
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](args, cfg, out)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError, MemoryError) as exc:
        # A MemoryError is an allocation that the requested sizes imply:
        # numpy's names its size, Python's own has no text.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
