"""Oracle checks on the files one benchmark operation wrote.

Every check raises :class:`CheckFailed` with a one-line reason.  The
expected values are computed here, independently of the package: closed
forms, counts taken from the generated inputs, or the criterion-06 shape
rules of the acceptance suite.  None of them reads a number from the
package's own oracle fields without recomputing it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: Default blockade geometry of the CLI (micrometers).
BLOCKADE_RADIUS = 10.5
CLOUD_LENGTH = 15.0


class CheckFailed(Exception):
    """An output is missing, unparseable, non-finite or wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_table(path: Path) -> dict[str, np.ndarray]:
    """A CSV with one header line and only finite numbers below it, as
    columns by name.  Anything else fails the check."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CheckFailed(f"{path}: {exc}") from None
    _require(len(lines) >= 2, f"{path}: no data rows")
    names = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        _require(len(parts) == len(names), f"{path}:{lineno}: {len(parts)} fields")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise CheckFailed(f"{path}:{lineno}: unparseable number") from None
        _require(all(math.isfinite(v) for v in row), f"{path}:{lineno}: non-finite value")
        rows.append(row)
    data = np.array(rows)
    return {name: data[:, i] for i, name in enumerate(names)}


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def read_json(path: Path) -> dict:
    """A JSON object without NaN or infinity."""
    try:
        return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path}: {exc}") from None


def pair_survival(r_b: float, cloud_length: float) -> float:
    """Two uniform points in [0, L] more than r_b apart: (1 - r_b/L)^2."""
    return max(0.0, 1.0 - r_b / cloud_length) ** 2


# --- fig-pair -------------------------------------------------------------

def check_fig_shapes(d: dict, w: dict, e_d: dict, e_w: dict) -> None:
    """Criterion 06's shape rules: ``d``/``w`` are the fig3 tables of the
    heralded and Poissonian inputs, ``e_d``/``e_w`` the fig4 tables."""
    zeta = d["zeta"]
    plateau = w["g2_out"][zeta <= 0.02]
    _require(plateau.size > 0, "no sweep point with zeta <= 0.02")
    _require(plateau.max() - plateau.min() < 0.01, "Poissonian g2_out plateau is not flat")
    _require(w["g2_out"][-1] > plateau.mean() + 0.01, "Poissonian g2_out does not rise")
    diff = d["g2_out"] - w["g2_out"]
    _require(diff[0] < 0 < diff[-1], "heralded curve does not cross the Poissonian one")
    crossing = np.where(np.diff(np.sign(diff)) != 0)[0]
    _require(crossing.size == 1, f"{crossing.size} crossings instead of 1")
    i = crossing[0]
    g2_in = 0.5 * (d["g2_in"][i] + d["g2_in"][i + 1])
    _require(0.75 < g2_in < 1.3, f"crossing at g2_in={g2_in:.3f}, outside (0.75, 1.3)")
    for name, table in (("heralded", e_d), ("Poissonian", e_w)):
        _require(bool(np.all(np.diff(table["eta"]) < 1e-4)),
                 f"{name} efficiency does not decay monotonically")
    high = zeta > 0.2
    _require(bool(np.all(e_d["eta"][high] < e_w["eta"][high])),
             "heralded efficiency is not below the Poissonian one at zeta > 0.2")


def check_plateau_value(w: dict, trials: int) -> None:
    """The lowest-zeta Poissonian g2_out sits at the pair-survival
    probability (1 - r_b/L)^2 within 3 sigma + 1e-3."""
    expected = pair_survival(BLOCKADE_RADIUS, CLOUD_LENGTH)
    sigma = math.sqrt(expected * (1 - expected) / trials)
    got = w["g2_out"][0]
    _require(abs(got - expected) < 3 * sigma + 1e-3,
             f"lowest-zeta g2_out {got:.5f} is not {expected:.5f} +- 3 sigma")


def check_fig_pair(out: Path, trials: int, points: int) -> None:
    tables = {f"{fig}_{kind}": read_table(out / f"{fig}_{kind}.csv")
              for fig in ("fig3", "fig4") for kind in ("dlcz", "wcs")}
    for name, table in tables.items():
        _require(table["zeta"].size == points, f"{name}: {table['zeta'].size} rows")
    check_fig_shapes(tables["fig3_dlcz"], tables["fig3_wcs"],
                     tables["fig4_dlcz"], tables["fig4_wcs"])
    check_plateau_value(tables["fig3_wcs"], trials)


# --- sweep-dense ----------------------------------------------------------

def poisson_zeta(mu: np.ndarray) -> np.ndarray:
    """P(n >= 2)/P(n >= 1) of a Poisson distribution with mean mu."""
    p_ge1 = -np.expm1(-mu)
    return (p_ge1 - mu * np.exp(-mu)) / p_ge1


def check_wcs_zeta(w: dict, zeta_grid: np.ndarray) -> None:
    _require(w["zeta"].size == zeta_grid.size, f"{w['zeta'].size} sweep rows")
    _require(bool(np.allclose(w["zeta"], zeta_grid, rtol=1e-12, atol=0)),
             "sweep zeta column differs from the requested grid")
    err = np.abs(poisson_zeta(w["param"]) - w["zeta"])
    _require(err.max() < 1e-9, f"Poissonian zeta(param) off by {err.max():.2e}")


def check_figs5(table: dict, zetas: tuple[float, ...]) -> None:
    """Every distribution column sums to 1 and has the requested zeta."""
    for kind in ("dlcz", "wcs"):
        for zeta in zetas:
            name = f"{kind}_zeta_{zeta:g}"
            _require(name in table, f"figS5 column {name} missing")
            probs = table[name]
            _require(abs(probs.sum() - 1.0) < 1e-12, f"{name} sums to {probs.sum()!r}")
            got = probs[2:].sum() / probs[1:].sum()
            _require(abs(got - zeta) < 1e-9, f"{name} has zeta {got!r}")


def noise_free_cross_correlation(p: np.ndarray, t_r: float, eta_a: float,
                                 p_eg: float) -> np.ndarray:
    """g2_wr of the rate model without read noise: the write noise
    cancels, leaving (eta_a + p x) / (p (eta_a + x)) with x = (1-eta_a) p_eg."""
    x = (1.0 - eta_a) * p_eg
    return (eta_a * t_r + p * x * t_r) / (p * (eta_a * t_r + x * t_r))


def check_figs3(table: dict, params: dict) -> None:
    _require(table["p_w"].size == params["pw_points"], f"{table['p_w'].size} figS3 rows")
    expected = noise_free_cross_correlation(
        table["p"], params["t_r"], params["eta_a"], params["p_eg"])
    err = np.abs(table["g2wr_no_storage_noise_free"] / expected - 1.0)
    _require(err.max() < 1e-9, f"noise-free g2_wr off by {err.max():.2e} (relative)")
    _require(bool(np.all(table["g2wr_no_storage"] < table["g2wr_no_storage_noise_free"])),
             "read noise does not lower g2_wr")


def fit_peg_rows(p_eg: float, params: dict) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free (p_w, p_r|w) pairs of the rate model at branching ratio p_eg."""
    p_w = np.geomspace(params["pw_min"], params["pw_max"], params["pw_points"])
    p = (p_w - params["p_nw"]) / params["t_w"]
    x = (1.0 - params["eta_a"]) * p_eg
    return p_w, params["eta_a"] * params["t_r"] + p * x * params["t_r"] + params["p_nr"]


def check_fit_peg(report: dict, p_eg: float, rows: int) -> None:
    _require(report.get("n_rows") == rows, f"fit used {report.get('n_rows')} rows")
    got = report.get("p_eg")
    _require(isinstance(got, float) and abs(got - p_eg) < 1e-6,
             f"fitted p_eg {got!r} is not the generating {p_eg!r}")


# --- clicks-1e6 -------------------------------------------------------------

def click_g2(probs: np.ndarray, q1: float = 0.0, q2: float = 0.0) -> float:
    """Expected E[c1 c2] / (E[c1] E[c2]) for non-number-resolving detectors
    behind a 50/50 beam splitter, each also clicking on background with
    probability q1, q2 per trial.  With q = 0 this is
    sum_{n>=1} P_n (1 - 2^(1-n)) / [sum_n P_n (1 - 2^-n)]^2, which is not
    the Fock g2 sum n(n-1) P_n / (sum n P_n)^2."""
    half = 0.5 ** np.arange(probs.size)
    dark_1 = (1.0 - q1) * np.dot(probs, half)
    dark_2 = (1.0 - q2) * np.dot(probs, half)
    dark_both = (1.0 - q1) * (1.0 - q2) * probs[0]
    both = 1.0 - dark_1 - dark_2 + dark_both
    return both / ((1.0 - dark_1) * (1.0 - dark_2))


def check_g2_report(report: dict, expected: dict, probs: np.ndarray,
                    q1: float, q2: float) -> None:
    """Counts equal the ones taken from the generated stream; raw and
    corrected g2 agree with the beam-splitter expectation within 4 sigma."""
    for key in ("N", "n12"):
        _require(report.get(key) == expected[key],
                 f"{key}={report.get(key)!r}, stream has {expected[key]}")
    for key in ("n1", "n2", "nn1", "nn2"):
        got = report.get(key)
        _require(isinstance(got, float) and abs(got - expected[key]) <= 1e-15 * max(1.0, got),
                 f"{key}={got!r}, stream has {expected[key]!r}")
    sigma = report.get("error")
    _require(isinstance(sigma, float) and sigma > 0, f"bootstrap error {sigma!r}")
    for key, target in (("g2_raw", click_g2(probs, q1, q2)),
                        ("g2_corrected", click_g2(probs))):
        got = report.get(key)
        _require(isinstance(got, float), f"{key}={got!r}")
        z = (got - target) / sigma
        _require(abs(z) < 4, f"{key}={got:.5f} is {z:+.1f} sigma from {target:.5f}")


# --- slowlight-2t -----------------------------------------------------------

def read_matrix(path: Path, n_max: int) -> np.ndarray:
    table = read_table(path)
    columns = [str(l) for l in range(n_max + 1)]
    _require(list(table)[1:] == columns, f"{path}: header is not k\\l,0..{n_max}")
    matrix = np.column_stack([table[c] for c in columns])
    _require(matrix.shape == (n_max + 1, n_max + 1), f"{path}: shape {matrix.shape}")
    return matrix


def check_blockade(matrix: np.ndarray, summary: dict, trials: int,
                   cloud_length: float) -> None:
    sums = matrix.sum(axis=0)
    worst = np.abs(sums - 1.0).max()
    _require(worst <= 1e-12, f"a column sums to 1 {worst:+.1e}")
    _require(bool(np.all(matrix >= 0)), "negative matrix entry")
    expected = pair_survival(BLOCKADE_RADIUS, cloud_length)
    sigma = math.sqrt(expected * (1 - expected) / trials)
    z = (matrix[2, 2] - expected) / sigma
    _require(abs(z) < 4, f"pair survival {matrix[2, 2]:.5f} is {z:+.1f} sigma from {expected:.5f}")
    check = summary.get("pair_survival_check", {})
    _require(isinstance(check.get("z_score"), float) and abs(check["z_score"] - z) < 1e-6,
             f"pair_survival_check z_score {check.get('z_score')!r}, recomputed {z:+.4f}")
