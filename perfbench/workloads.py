"""The four benchmark workloads.

Each workload has four steps:

* ``setup(seed, workdir)`` builds the inputs from the workload seed and
  returns them as a dict.  It is timed as part of ``setup_s``.
* ``expect(inputs)`` adds the values the oracles compare with that are
  taken from the generated inputs, and drops what the operations do not
  need.  It is the benchmark's own work and is not timed.
* ``operation(inputs, out)`` is one closed-loop operation: in-process
  ``rydstats.cli.main`` calls writing into the empty directory ``out``.
* ``check(inputs, out)`` runs the oracle checks on what the operation wrote.

The inputs after ``expect`` are plain data, so that an untraced run can
build them in a child process (``setup_probe.py``) and load them.

Problem sizes are fields, so that the benchmark's own tests can run the
same code on small inputs.  The defaults are the benchmark's sizes: each
operation takes a few seconds on a 2-core x86 machine, so one measured
run holds several operations and reports their median.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Package functions are called through their modules so that a traced run
# sees them (the tracer rebinds module attributes).
from rydstats import cli, clicks, source
from rydstats.clicks import DETECTORS, WindowSpec

import oracles
from oracles import CheckFailed


def cli_seed(seed: int) -> int:
    """The non-negative seed handed to the program."""
    return seed % 2**32


def run_cli(argv: list[str]) -> None:
    """One ``rydstats`` command in this process; a nonzero exit fails."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"rydstats {' '.join(argv)} exited {code}: "
                          f"{stderr.getvalue().strip()}")


class Workload:
    """Default steps: inputs need no expected values."""

    def expect(self, inputs: dict) -> dict:
        return inputs


@dataclass(frozen=True)
class FigPair(Workload):
    """``reproduce fig3`` then ``reproduce fig4`` at the default geometry."""

    name = "fig-pair"
    why = ("criterion 06 traffic: two sweeps that rebuild the same 101x101 "
           "blockade matrix; the Monte Carlo is about half the time")
    trials: int = 5000
    n_max: int = 100
    points: int = 21

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"seed": cli_seed(seed)}

    def operation(self, inputs: dict, out: Path) -> None:
        for figure in ("fig3", "fig4"):
            run_cli(["--out", str(out), "--seed", str(inputs["seed"]), "--threads", "1",
                     "reproduce", figure, "--trials", str(self.trials),
                     "--n-max", str(self.n_max)])

    def check(self, inputs: dict, out: Path) -> None:
        oracles.check_fig_pair(out, self.trials, self.points)


#: Key file of the sweep-dense workload: the CLI defaults, spelled out so
#: that every command parses a full file.
SWEEP_CONFIG = {
    "threads": 1, "cloud_length": 15.0, "blockade_radius": 10.5,
    "t_losses": 0.15, "eta_compression": 0.6, "eta_compression_lo": 0.45,
    "eta_compression_hi": 0.75, "eta_eit": 0.6, "eta_r": 0.41,
    "t_w": 0.21, "t_r": 0.09, "eta_a": 0.32, "p_eg": 0.2, "p_nw": 1e-4,
    "p_nr": 1.5e-3, "stored_p_nr": 1.3e-4, "zeta_values": (0.01, 0.05, 0.5),
    "pw_min": 2e-4, "pw_max": 0.05, "pw_points": 25,
}


def _config_line(key: str, value) -> str:
    if isinstance(value, tuple):
        value = ",".join(repr(v) for v in value)
    return f"{key} = {value}\n"


@dataclass(frozen=True)
class SweepDense(Workload):
    """A dense low-trial fig3 sweep, figS5, figS3 and fit-peg, all
    reading a generated key file."""

    name = "sweep-dense"
    why = ("31-point fig3 sweep at 500 trials plus figS5, figS3 and fit-peg: "
           "the Monte Carlo is 13-15%, the sweep layers the rest")
    trials: int = 500
    points: int = 31
    zeta_min: float = 0.004
    zeta_max: float = 0.4

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(cli_seed(seed))
        params = dict(SWEEP_CONFIG, seed=cli_seed(seed))
        config = workdir / "sweep.cfg"
        config.write_text("# generated by perfbench\n" + "".join(
            _config_line(k, v) for k, v in params.items()))
        p_eg = float(rng.uniform(0.05, 0.6))
        p_w, p_r = oracles.fit_peg_rows(p_eg, params)
        data = workdir / "peg.csv"
        data.write_text("p_w,p_r_given_w\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in zip(p_w.tolist(), p_r.tolist())))
        return {"config": config, "data": data, "params": params, "p_eg": p_eg}

    def operation(self, inputs: dict, out: Path) -> None:
        base = ["--config", str(inputs["config"]), "--out", str(out)]
        grid = f"{self.zeta_min!r},{self.zeta_max!r},{self.points}"
        run_cli(base + ["reproduce", "fig3", "--trials", str(self.trials),
                        "--zeta-range", grid])
        run_cli(base + ["reproduce", "figS5"])
        run_cli(base + ["reproduce", "figS3"])
        run_cli(base + ["fit-peg", str(inputs["data"])])

    def check(self, inputs: dict, out: Path) -> None:
        params = inputs["params"]
        grid = np.geomspace(self.zeta_min, self.zeta_max, self.points)
        oracles.check_wcs_zeta(oracles.read_table(out / "fig3_wcs.csv"), grid)
        dlcz = oracles.read_table(out / "fig3_dlcz.csv")
        if dlcz["zeta"].size != self.points:
            raise CheckFailed(f"fig3_dlcz.csv: {dlcz['zeta'].size} rows")
        oracles.check_figs5(oracles.read_table(out / "figS5_distributions.csv"),
                            params["zeta_values"])
        oracles.check_figs3(oracles.read_table(out / "figS3_cross_correlation.csv"), params)
        oracles.check_fit_peg(oracles.read_json(out / "p_eg_fit.json"), inputs["p_eg"],
                              params["pw_points"])


def stream_counts(ids: np.ndarray, codes: np.ndarray, times: np.ndarray,
                  n_trials: int, windows: WindowSpec) -> dict:
    """N, n1, n2, n12, nn1 and nn2 of a click stream for roles D2/D3,
    taken from the stream arrays with set operations."""
    def trials_with(code, window):
        sel = (codes == code) & (times >= window[0]) & (times < window[1])
        return np.unique(ids[sel])

    def noise(code):
        sel = (codes == code) & (times >= windows.noise[0]) & (times < windows.noise[1])
        return float(np.count_nonzero(sel))

    d2, d3 = DETECTORS.index("D2"), DETECTORS.index("D3")
    hit_1 = trials_with(d2, windows.signal_1)
    hit_2 = trials_with(d3, windows.signal_2)
    len1, len2 = windows.signal_lengths
    return {
        "N": n_trials,
        "n1": hit_1.size / n_trials,
        "n2": hit_2.size / n_trials,
        "n12": int(np.intersect1d(hit_1, hit_2, assume_unique=True).size),
        "nn1": noise(d2) / n_trials * (len1 / windows.noise_length),
        "nn2": noise(d3) / n_trials * (len2 / windows.noise_length),
    }


@dataclass(frozen=True)
class Clicks(Workload):
    """``g2`` on a synthetic heralded-source click file with background."""

    name = "clicks-1e6"
    why = ("g2 on a 1e6-trial click file with background: CSV ingest and the "
           "bootstrap, the only large-memory workload")
    trials: int = 1_000_000
    noise_hz: float = 1e4

    def setup(self, seed: int, workdir: Path) -> dict:
        dist = source.conditional_read_state(source.SourceModel(0.05, 0.21), 15)
        windows = WindowSpec()
        stream = clicks.synthesize(dist, self.trials, windows,
                                   (self.noise_hz, self.noise_hz), seed=cli_seed(seed))
        path = workdir / "clicks.csv"
        stream.write_csv(path)
        q = 1.0 - np.exp(-self.noise_hz * windows.signal_lengths[0] * 1e-9)
        return {
            "seed": cli_seed(seed),
            "path": path,
            "probs": dist.probs,
            "q": float(q),
            "stream": stream,
            "windows": windows,
        }

    def expect(self, inputs: dict) -> dict:
        """The stream's counts replace the stream itself."""
        inputs = dict(inputs)
        stream = inputs.pop("stream")
        inputs["counts"] = stream_counts(stream.trial_ids, stream.detector_codes,
                                         stream.times_ns, stream.n_trials, inputs["windows"])
        return inputs

    def operation(self, inputs: dict, out: Path) -> None:
        run_cli(["--out", str(out), "--seed", str(inputs["seed"]), "g2", str(inputs["path"])])

    def check(self, inputs: dict, out: Path) -> None:
        oracles.check_g2_report(oracles.read_json(out / "g2_report.json"),
                                inputs["counts"], inputs["probs"], inputs["q"], inputs["q"])


@dataclass(frozen=True)
class SlowLight(Workload):
    """``blockade --slow-light`` on two threads."""

    name = "slowlight-2t"
    why = ("stretched cloud (L=37.5) on the threaded blockade_matrix path, "
           "outside the L <= 2 r_b case of the default geometry")
    trials: int = 10_000
    n_max: int = 100
    medium_scale: float = 2.5

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"seed": cli_seed(seed)}

    def operation(self, inputs: dict, out: Path) -> None:
        run_cli(["--out", str(out), "--seed", str(inputs["seed"]), "--threads", "2",
                 "blockade", "--slow-light", "--medium-scale", repr(self.medium_scale),
                 "--n-max", str(self.n_max), "--trials", str(self.trials)])

    def check(self, inputs: dict, out: Path) -> None:
        matrix = oracles.read_matrix(out / "blockade_matrix.csv", self.n_max)
        oracles.check_blockade(matrix, oracles.read_json(out / "blockade_summary.json"),
                               self.trials, oracles.CLOUD_LENGTH * self.medium_scale)


WORKLOADS = {w.name: w for w in (FigPair(), SweepDense(), Clicks(), SlowLight())}
