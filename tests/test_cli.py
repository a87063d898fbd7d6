import inspect
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rydstats
from rydstats import (
    BlockadeConfig,
    ClickStream,
    PipelineConfig,
    RateModelParams,
    TrialData,
    WindowSpec,
    analysis_report,
    blockade_matrix,
    bootstrap_error,
    coherent,
    count_trials,
    exact_pair_survival,
    fock_state,
    medium_matrix,
    synthesize,
)
from rydstats import cli, pipeline, source
from rydstats.blockade import _stretched
from rydstats._table import read_table
from rydstats.cli import _blockade_config, _pipeline_config, _rate_model, main
from rydstats.config import _KEYS, RunConfig, _float_list, parse_config_file
from rydstats.errors import NumericalError, ValidationError
from rydstats.pipeline import _zeta_to_params

from golden.cases import CASES, INPUTS, run_case


def run(args):
    return main([str(a) for a in args])


class TestConfigFile:
    def test_parses_and_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "seed = 7\n"
            "blockade_radius = 9.0   # inline comment\n"
            "detectors_1 = D1,D2\n"
            "zeta_values = 0.01,0.1\n"
        )
        cfg = parse_config_file(path)
        assert cfg.seed == 7
        assert cfg.blockade_radius == 9.0
        assert cfg.detectors_1 == ("D1", "D2")
        assert cfg.zeta_values == (0.01, 0.1)
        # untouched keys keep defaults
        assert cfg.trials == 100_000

    def test_unknown_key_is_error_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nblockade_radiu = 9.0\n")
        with pytest.raises(ValidationError, match=":2"):
            parse_config_file(path)

    def test_range_check(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eta_r = 1.5\n")
        with pytest.raises(ValidationError, match="out of range"):
            parse_config_file(path)

    @pytest.mark.parametrize("name", ["detectors_1", "detectors_2"])
    def test_unknown_detector_fails_with_line(self, tmp_path, name):
        # a typo fails where it was written, not first in g2's click counting
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = 1\n{name} = D2, D9\n")
        with pytest.raises(ValidationError, match=f":2: value out of range for {name}"):
            parse_config_file(path)
        assert run(["--config", path, "--out", tmp_path, "reproduce", "figS3"]) == 2

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trials = many\n")
        with pytest.raises(ValidationError, match="bad value"):
            parse_config_file(path)

    def test_set_rejects_unknown(self):
        with pytest.raises(ValidationError):
            RunConfig().set("nope", 1)

    def test_set_applies_range_check(self):
        with pytest.raises(ValidationError, match="out of range for threads"):
            RunConfig().set("threads", 0)

    def test_n_max_takes_the_largest_indexable_truncation(self):
        cfg = RunConfig()
        cfg.set("n_max", 1_073_741_822)
        assert cfg.n_max == 1_073_741_822
        with pytest.raises(ValidationError, match="^value out of range for n_max: 1073741823$"):
            cfg.set("n_max", 1_073_741_823)

    @pytest.mark.parametrize("name", ["_x", "no_such_key"])
    def test_attribute_outside_the_key_table(self, name):
        with pytest.raises(AttributeError, match=f"^{name}$"):
            getattr(RunConfig(), name)

    def test_non_utf8_file_is_validation_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\n# caf\xe9\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:2: not UTF-8 text (byte 0xe9)")):
            parse_config_file(path)
        assert run(["--config", path, "--out", tmp_path, "reproduce", "figS5"]) == 2

    def test_non_utf8_byte_waits_for_earlier_lines(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"mystery = 1\nseed = 3\n# \xff\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:1: unknown key 'mystery'")):
            parse_config_file(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with one
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfseed = 7\n")
        assert parse_config_file(path).seed == 7

    def test_negative_seed_in_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trials = 10\nseed = -1\n")
        with pytest.raises(ValidationError, match=":2: value out of range for seed"):
            parse_config_file(path)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "name",
        ["zeta_min", "zeta_max", "pw_min", "pw_max", "cloud_length", "medium_scale",
         "blockade_radius"],
    )
    def test_float_keys_must_be_finite(self, tmp_path, name, text):
        path = tmp_path / "run.cfg"
        path.write_text(f"{name} = {text}\n")
        with pytest.raises(ValidationError, match=f":1: value out of range for {name}: {text}$"):
            parse_config_file(path)

    def test_zeta_values_must_be_finite(self):
        with pytest.raises(ValidationError, match=r"zeta_values: \(0\.01, inf\)"):
            RunConfig().set("zeta_values", (0.01, float("inf")))


class TestDefaultsAgreeWithLibrary:
    # A run with no config file and no flags builds exactly the library's
    # default objects.
    @pytest.mark.parametrize("kind", ["dlcz", "wcs"])
    def test_pipeline_config(self, kind):
        assert _pipeline_config(RunConfig(), kind, 100, False) == PipelineConfig(
            input_kind=kind, blockade=BlockadeConfig(n_max=100))

    def test_rate_model(self):
        assert _rate_model(RunConfig()) == RateModelParams(p=0.0)

    def test_blockade_config(self):
        assert _blockade_config(RunConfig(), 20) == BlockadeConfig()

    @pytest.mark.parametrize("kind", ["dlcz", "wcs"])
    def test_slow_light_is_the_stretched_cloud(self, kind):
        # medium_scale 2.5 times the 15 um cloud
        assert _pipeline_config(RunConfig(), kind, 100, True).blockade == BlockadeConfig(
            cloud_length=37.5, n_max=100)

    def test_click_analysis(self):
        cfg = RunConfig()
        windows = WindowSpec(signal_1=(cfg.signal_start_ns, cfg.signal_end_ns),
                             noise=(cfg.noise_start_ns, cfg.noise_end_ns))
        assert windows == WindowSpec()
        roles = inspect.signature(count_trials).parameters
        assert cfg.detectors_1 == roles["detectors_1"].default
        assert cfg.detectors_2 == roles["detectors_2"].default
        for fn in (bootstrap_error, analysis_report):
            assert cfg.resamples == inspect.signature(fn).parameters["resamples"].default


class TestBuildFromKeys:
    # RunConfig.build takes each field that a key sets from that key, and
    # nothing else from the config.
    def test_every_bound_key_sets_its_field(self):
        bound = {name: spec for name, spec in _KEYS.items() if spec.owner is not None}
        assert {spec.owner for spec in bound.values()} == {
            BlockadeConfig, PipelineConfig, RateModelParams}
        assert len(bound) == 14
        for name, spec in bound.items():
            fixed = {"p": 0.0} if spec.owner is RateModelParams else {}
            value = type(spec.default)(spec.default / 2)
            assert value != spec.default
            cfg = RunConfig()
            cfg.set(name, value)
            assert cfg.build(spec.owner, **fixed) == spec.owner(
                **fixed, **{spec.field_name: value}), name


#: The float keys that set one library field, each with how it builds
#: that field's owner at value v.  t_w has two owners, which must agree.
_FIELD_OWNERS = {
    "cloud_length": lambda v: BlockadeConfig(cloud_length=v),
    "blockade_radius": lambda v: BlockadeConfig(blockade_radius=v),
    **{name: lambda v, name=name: PipelineConfig(**{name: v})
       for name in ("t_losses", "eta_compression", "eta_eit", "eta_r")},
    # each end of the band, the other end at the same value
    "eta_compression_lo": lambda v: PipelineConfig(compression_band=(v, v)),
    "eta_compression_hi": lambda v: PipelineConfig(compression_band=(v, v)),
    "t_w": lambda v: (PipelineConfig(t_w=v), RateModelParams(p=0.0, t_w=v)),
    **{name: lambda v, name=name: RateModelParams(p=0.0, **{name: v})
       for name in ("t_r", "eta_a", "p_eg", "p_nw", "p_nr")},
    # with_storage puts it into p_nr
    "stored_p_nr": lambda v: RateModelParams(p=0.0, p_nr=v),
    # the 15 um cloud stretched by every value below stays finite
    "medium_scale": lambda v: _stretched(BlockadeConfig(), v),
}
#: The float keys that set no library field.
_UNOWNED = {"zeta_min", "zeta_max", "pw_min", "pw_max"}
_EDGES = [-1.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 1 + 1e-7, 2.5, 1e300, float("inf"),
          -float("inf"), float("nan")]

#: Past every count below: the other end of a window, or a window that
#: cannot overlap the one a key sets.
_FAR = 2**80
#: One trial with one click, on D1 at 0 ns.
_ONE_CLICK = ClickStream(1, np.zeros(1, np.int64), np.zeros(1, np.int8), np.zeros(1, np.int64))


def _bootstrap_with_resamples(v):
    # 5 trials are too few to bootstrap, an error that comes only after
    # the resample count has passed, so no resample is drawn
    five = TrialData(5, np.zeros((4, 1), np.int64), np.array([5]), WindowSpec())
    try:
        bootstrap_error(five, resamples=v)
    except ValidationError as exc:
        if "need at least 10 trials" not in str(exc):
            raise


#: The integer keys that set a library value, each with the library code
#: that reads it at value v.  threads has two readers, which must agree;
#: neither starts a thread here, as both media are exact.
_COUNT_OWNERS = {
    "seed": lambda v: BlockadeConfig(rng_seed=v),
    "trials": lambda v: BlockadeConfig(trials_per_fock=v),
    "n_max": lambda v: BlockadeConfig(n_max=v),
    "threads": lambda v: (blockade_matrix(BlockadeConfig(blockade_radius=0.0, n_max=1), v),
                          medium_matrix(PipelineConfig(blockade=BlockadeConfig(n_max=1)), v)),
    "resamples": _bootstrap_with_resamples,
    "signal_start_ns": lambda v: WindowSpec(signal_1=(v, _FAR), noise=(_FAR, _FAR + 1)),
    "signal_end_ns": lambda v: WindowSpec(signal_1=(0, v), noise=(_FAR, _FAR + 1)),
    "noise_start_ns": lambda v: WindowSpec(signal_1=(_FAR, _FAR + 1), noise=(v, _FAR)),
    "noise_end_ns": lambda v: WindowSpec(signal_1=(_FAR, _FAR + 1), noise=(0, v)),
}
#: The integer keys that set no library value.
_UNOWNED_COUNTS = {"zeta_points", "pw_points"}
#: 1073741822 is the largest n_max whose (n_max + 1)^2 doubles numpy can
#: index on 64 bits; every owner takes both without drawing or allocating.
_COUNTS = [-2**63, -1, 0, 1, 2, 99, 100, 101, 1073741822, 1073741823, 2**63 - 1, 2**63,
           2**70]
_DETECTOR_OWNERS = {
    "detectors_1": lambda v: count_trials(_ONE_CLICK, WindowSpec(), detectors_1=v),
    "detectors_2": lambda v: count_trials(_ONE_CLICK, WindowSpec(), detectors_2=v),
}
_DETECTOR_LISTS = [("D1",), ("D4",), ("D2", "D9")]


def _accepted(build, values) -> list:
    """The values for which ``build`` raises no ValidationError."""
    accepted = []
    for v in values:
        try:
            build(v)
        except ValidationError:
            continue
        accepted.append(v)
    return accepted


class TestRangesAgreeWithLibrary:
    # A value that the config accepts, the library accepts, and the reverse.
    def test_every_float_key_is_listed(self):
        floats = {name for name, spec in _KEYS.items() if spec.parse is float}
        assert floats == _FIELD_OWNERS.keys() | _UNOWNED
        assert len(_FIELD_OWNERS) == 16

    def test_every_integer_and_detector_key_is_listed(self):
        ints = {name for name, spec in _KEYS.items() if spec.parse is int}
        assert ints == _COUNT_OWNERS.keys() | _UNOWNED_COUNTS
        assert len(_COUNT_OWNERS) == 9
        assert {name for name in _KEYS if name.startswith("detectors")} == _DETECTOR_OWNERS.keys()

    @pytest.mark.parametrize("name", sorted(_FIELD_OWNERS))
    def test_same_values_accepted(self, name):
        by_config = _accepted(lambda x: RunConfig().set(name, x), _EDGES)
        assert by_config == _accepted(_FIELD_OWNERS[name], _EDGES)

    @pytest.mark.parametrize("name", sorted(_COUNT_OWNERS))
    def test_same_counts_accepted(self, name):
        by_config = _accepted(lambda x: RunConfig().set(name, x), _COUNTS)
        assert by_config == _accepted(_COUNT_OWNERS[name], _COUNTS)
        assert by_config  # not an agreement to refuse every value

    @pytest.mark.parametrize("name", sorted(_DETECTOR_OWNERS))
    def test_same_detector_lists_accepted(self, name):
        by_config = _accepted(lambda x: RunConfig().set(name, x), _DETECTOR_LISTS)
        assert by_config == _accepted(_DETECTOR_OWNERS[name], _DETECTOR_LISTS) == [("D1",)]


class TestBlockadeCommand:
    def test_zero_radius_identity(self, tmp_path):
        code = run(["--out", tmp_path, "blockade", "--rb", 0.0,
                    "--trials", 500, "--n-max", 4])
        assert code == 0
        lines = (tmp_path / "blockade_matrix.csv").read_text().splitlines()
        assert lines[0] == "k\\l,0,1,2,3,4"
        matrix = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        np.testing.assert_array_equal(matrix, np.eye(5))

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["--out", out, "--seed", 7, "blockade",
                        "--trials", 20_000, "--n-max", 5]) == 0
        assert (a / "blockade_matrix.csv").read_bytes() == (b / "blockade_matrix.csv").read_bytes()
        assert (a / "blockade_summary.json").read_bytes() == (b / "blockade_summary.json").read_bytes()

    def test_summary_oracle_check(self, tmp_path):
        assert run(["--out", tmp_path, "--seed", 3, "blockade",
                    "--trials", 50_000, "--n-max", 6]) == 0
        summary = json.loads((tmp_path / "blockade_summary.json").read_text())
        check = summary["pair_survival_check"]
        assert check["analytic"] == pytest.approx(exact_pair_survival(10.5, 15.0))
        assert abs(check["z_score"]) < 3

    def test_slow_light_flag(self, tmp_path):
        assert run(["--out", tmp_path, "--seed", 3, "blockade", "--slow-light",
                    "--medium-scale", 2.5, "--trials", 20_000, "--n-max", 4]) == 0
        summary = json.loads((tmp_path / "blockade_summary.json").read_text())
        assert summary["config"]["medium_scale"] == 2.5
        assert summary["pair_survival_check"]["analytic"] == pytest.approx(0.5184)

    def test_summary_uncertainties(self, tmp_path):
        # binomial standard error of every entry and of every column's mean
        trials = 20_000
        assert run(["--out", tmp_path, "--seed", 3, "blockade", "-L", 37.5,
                    "--trials", trials, "--n-max", 6]) == 0
        summary = json.loads((tmp_path / "blockade_summary.json").read_text())
        assert [c["n"] for c in summary["columns"]] == list(range(7))
        for column in summary["columns"]:
            probs = np.array(column["probs"])
            assert len(probs) == column["n"] + 1
            np.testing.assert_array_equal(column["standard_errors"],
                                          np.sqrt(probs * (1 - probs) / trials))
            k = np.arange(len(probs))
            mean = float(np.dot(k, probs))
            var = float(np.dot(k**2, probs)) - mean**2
            assert column["mean_survivors"] == pytest.approx(mean, rel=1e-14)
            assert column["se_mean"] == pytest.approx(
                np.sqrt(max(var, 0.0) / trials), rel=1e-12, abs=1e-15)
        # a stretched cloud leaves columns 3 and up with a spread to report
        assert all(c["se_mean"] > 0 for c in summary["columns"][2:])

    @pytest.mark.parametrize("lengths", [["--rb", "1e-320"], ["-L", "1e308", "--rb", "1e-5"]])
    def test_tiny_radius_against_the_cloud(self, tmp_path, lengths):
        # the survivor bound L // r_b overflows to inf; nothing is blocked
        assert run(["--out", tmp_path, "blockade", "--trials", 100, "--n", 3, *lengths]) == 0
        lines = (tmp_path / "blockade_matrix.csv").read_text().splitlines()
        matrix = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        np.testing.assert_array_equal(matrix, np.eye(4))


class TestG2Command:
    def make_stream(self, tmp_path, dist, noise=(0.0, 0.0), n=20_000):
        stream = synthesize(dist, n, WindowSpec(), noise_rates_hz=noise, seed=9)
        path = tmp_path / "clicks.csv"
        stream.write_csv(path)
        return path

    def test_coherent_stream_reports_unity(self, tmp_path):
        path = self.make_stream(tmp_path, coherent(0.3, 15), n=50_000)
        assert run(["--out", tmp_path, "g2", path, "--resamples", 200]) == 0
        report = json.loads((tmp_path / "g2_report.json").read_text())
        assert abs(report["g2_raw"] - 1.0) < 3 * report["error"]
        assert report["g2_corrected"] == report["g2_raw"]  # no noise

    def test_antibunched_with_noise_corrects_down(self, tmp_path):
        path = self.make_stream(tmp_path, fock_state(1, 10), noise=(3e4, 3e4), n=50_000)
        assert run(["--out", tmp_path, "g2", path, "--resamples", 200]) == 0
        report = json.loads((tmp_path / "g2_report.json").read_text())
        assert report["g2_raw"] > report["g2_corrected"]
        assert abs(report["g2_corrected"]) < 3 * report["error"]

    def test_overlapping_windows_rejected(self, tmp_path):
        path = self.make_stream(tmp_path, coherent(0.2, 10), n=1000)
        code = run(["--out", tmp_path, "g2", path,
                    "--window", "0,600", "--noise-window", "500,1100"])
        assert code == 2

    @pytest.mark.parametrize("resamples", [2**63 - 1, 10**20], ids=["int64-max", "beyond-int64"])
    def test_huge_resample_count_is_data_error(self, tmp_path, resamples, capsys):
        # numpy refuses both counts before it allocates anything
        clicks = INPUTS / "clicks.csv"
        assert run(["--out", tmp_path, "g2", clicks, "--resamples", resamples]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {clicks}: cannot draw {resamples} bootstrap resamples (")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("trials", ["99999999999999999999"], ids=["beyond-int64"])
    def test_huge_trial_count_is_data_error(self, tmp_path, trials, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# trials={trials}\ntrial_id,detector,time_ns\n0,D2,5\n")
        assert run(["--out", tmp_path, "g2", bad]) == 2
        assert capsys.readouterr().err == f"error: {bad}:1: trial count above {2**63 - 1}\n"
        assert not (tmp_path / "g2_report.json").exists()

    def test_largest_trial_count_runs_to_the_bootstrap(self, tmp_path, capsys):
        # no array has a length of n_trials, so 2**63 - 1 trials with 4
        # records count; then almost no resample holds a click
        path = tmp_path / "huge.csv"
        path.write_text("# trials=9223372036854775807\ntrial_id,detector,time_ns\n"
                        "0,D2,5\n0,D3,7\n1,D2,9\n2,D3,600\n")
        assert run(["--out", tmp_path, "g2", path]) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: {path}: bootstrap degenerate: almost all resamples lack clicks\n")
        assert not (tmp_path / "g2_report.json").exists()

    def test_detector_flag_parsed_like_config_key(self, tmp_path):
        path = self.make_stream(tmp_path, coherent(0.3, 15), n=5000)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("detectors_1 = D2, D3\n")
        reports = []
        for name, argv in (("flag", ["g2", path, "--detectors-1", "D2, D3"]),
                           ("file", ["--config", cfg, "g2", path])):
            out = tmp_path / name
            assert run(["--out", out, *argv, "--resamples", 100]) == 0
            reports.append((out / "g2_report.json").read_text())
        assert json.loads(reports[0])["detectors_1"] == ["D2", "D3"]
        assert reports[0] == reports[1]

    def test_second_signal_window(self, tmp_path, capsys):
        path = self.make_stream(tmp_path, coherent(0.3, 15), noise=(3e4, 3e4), n=5000)
        reports = {}
        for name, window in (("same", []), ("narrow", ["--window-2", "0,100"])):
            out = tmp_path / name
            assert run(["--out", out, "g2", path, "--resamples", 100, *window]) == 0
            reports[name] = json.loads((out / "g2_report.json").read_text())
        same, narrow = reports["same"], reports["narrow"]
        assert same["windows"]["signal_2"] == [0, 300]
        assert narrow["windows"]["signal_2"] == [0, 100]
        assert narrow["n1"] == same["n1"] and narrow["n2"] < same["n2"]
        capsys.readouterr()
        assert run(["--out", tmp_path / "overlap", "g2", path, "--window-2", "400,700"]) == 2
        assert capsys.readouterr().err == (
            "error: noise window (500, 1100) overlaps signal_2 window (400, 700)\n")

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# trials=5\ntrial_id,detector,time_ns\n0,D2,oops\n")
        assert run(["--out", tmp_path, "g2", bad]) == 2


class TestReproduceCommands:
    def test_figS5_columns(self, tmp_path):
        assert run(["--out", tmp_path, "reproduce", "figS5",
                    "--zeta", "0.01,0.05"]) == 0
        lines = (tmp_path / "figS5_distributions.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["k", "dlcz_zeta_0.01", "dlcz_zeta_0.05",
                          "wcs_zeta_0.01", "wcs_zeta_0.05"]
        body = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        sums = body[:, 1:].sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        # heralded input carries no vacuum before losses but plenty after;
        # its distribution tail must exceed the Poissonian one at equal zeta
        k = body[:, 0]
        dlcz_tail = body[k >= 3, 1].sum()
        wcs_tail = body[k >= 3, 3].sum()
        assert dlcz_tail > wcs_tail

    def test_fig3_shape(self, tmp_path):
        assert run(["--out", tmp_path, "--seed", 11, "reproduce", "fig3",
                    "--trials", 4000, "--zeta-range", "0.01,0.3,5"]) == 0
        for kind in ("dlcz", "wcs"):
            lines = (tmp_path / f"fig3_{kind}.csv").read_text().splitlines()
            assert lines[0] == "zeta,param,g2_in,g2_out,eta,g2_out_lo,g2_out_hi"
            assert len(lines) == 6

    def test_figS3_noise_free_collapse(self, tmp_path):
        assert run(["--out", tmp_path, "reproduce", "figS3"]) == 0
        lines = (tmp_path / "figS3_cross_correlation.csv").read_text().splitlines()
        body = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        no_storage_free, storage_free = body[:, 4], body[:, 5]
        np.testing.assert_allclose(no_storage_free, storage_free, rtol=0.01)
        # with noise, storage must improve the correlation
        assert np.all(body[:, 3] > body[:, 2])

    @pytest.mark.parametrize("config, cause", [
        ("t_r = 0\n", "t_r=0.0, eta_a=0.32, p_eg=0.2, p_nr=0.0"),
        ("eta_a = 0\np_eg = 0\n", "t_r=0.09, eta_a=0.0, p_eg=0.0, p_nr=0.0"),
    ], ids=["t_r", "eta_a-p_eg"])
    def test_figS3_zero_read_probability_names_column_and_cause(self, tmp_path, capsys,
                                                                config, cause):
        # the noise-free columns set p_nr = 0, so there
        # p_r = p t_r (eta_a + (1 - eta_a) p_eg) + p_nr is 0; a CSV cannot
        # hold the undefined g2, so the run stops
        path = tmp_path / "run.cfg"
        path.write_text(config)
        out = tmp_path / "out"
        assert run(["--config", path, "--out", out, "reproduce", "figS3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: g2wr_no_storage_noise_free at p_w=0.0002: ")
        assert err.endswith(f", {cause}\n")
        assert not (out / "figS3_cross_correlation.csv").exists()

    def test_figS5_nan_zeta_is_data_error(self, tmp_path, capsys):
        assert run(["--out", tmp_path, "reproduce", "figS5", "--zeta", "0.01,nan"]) == 2
        assert "out of range for zeta_values" in capsys.readouterr().err
        assert not (tmp_path / "figS5_distributions.csv").exists()

    @pytest.mark.parametrize("values, first, second", [
        ("0.01,0.0100000001,0.05", "0.01", "0.0100000001"),
        ("0.05,0.05", "0.05", "0.05"),
    ], ids=["print-alike", "repeated"])
    @pytest.mark.parametrize("given_by", ["flag", "file"])
    def test_figS5_refuses_values_that_share_a_column(self, tmp_path, capsys, monkeypatch,
                                                      given_by, values, first, second):
        # each value names its columns with %g; two that print alike would
        # write one column each, and the first value's would hold the second's
        # distribution.  The list is refused before any inversion.
        def refuse(*args):
            raise AssertionError("zeta inverted")

        monkeypatch.setattr(cli, "_zeta_to_params", refuse)
        if given_by == "flag":
            argv = ["reproduce", "figS5", "--zeta", values]
        else:
            (tmp_path / "run.cfg").write_text(f"zeta_values = {values}\n")
            argv = ["--config", tmp_path / "run.cfg", "reproduce", "figS5"]
        assert run(["--out", tmp_path / "out", *argv]) == 2
        assert capsys.readouterr().err == (
            f"error: zeta values {first} and {second} would share the columns "
            f"dlcz_zeta_{first} and wcs_zeta_{first}\n")
        assert not (tmp_path / "out" / "figS5_distributions.csv").exists()

    def test_figS3_nan_efficiency_row_writes_nothing(self, tmp_path, capsys):
        table = tmp_path / "eff.csv"
        table.write_text("p_w,eta\n0.001,0.3\n0.01,nan\n0.05,0.1\n")
        out = tmp_path / "out"
        assert run(["--out", out, "reproduce", "figS3", "--efficiency-table", table]) == 2
        assert f"{table}:3: non-finite" in capsys.readouterr().err
        assert not (out / "figS3_cross_correlation.csv").exists()

    def test_figS3_reads_efficiency_table_key(self, tmp_path):
        table = tmp_path / "eff.csv"
        table.write_text("p_w,eta\n0.001,0.3\n0.05,0.1\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"efficiency_table = {table}\n")
        runs = {
            "default": ["reproduce", "figS3"],
            "flag": ["reproduce", "figS3", "--efficiency-table", table],
            "file": ["--config", cfg, "reproduce", "figS3"],
        }
        outputs = {}
        for name, argv in runs.items():
            assert run(["--out", tmp_path / name, *argv]) == 0
            outputs[name] = (tmp_path / name / "figS3_cross_correlation.csv").read_bytes()
        assert outputs["file"] == outputs["flag"] != outputs["default"]

    def test_unattainable_zeta_names_a_plain_number(self, tmp_path, capsys):
        assert run(["--out", tmp_path, "reproduce", "fig3", "--n-max", 1,
                    "--trials", 100]) == 2
        err = capsys.readouterr().err
        assert "(target 0.004 outside attainable range" in err
        assert "np." not in err

    def test_slow_light_is_the_stretched_cloud(self, tmp_path):
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("cloud_length = 37.5\n")
        runs = {
            "flag": ["reproduce", "fig4", "--slow-light"],
            "file": ["--config", cfg, "reproduce", "fig4"],
            "storage": ["reproduce", "fig4"],
        }
        outputs = {}
        for name, argv in runs.items():
            out = tmp_path / name
            assert run(["--out", out, "--seed", 5, *argv, "--trials", 2000,
                        "--zeta-range", "0.01,0.3,4"]) == 0
            outputs[name] = [(out / f"fig4_{kind}.csv").read_bytes() for kind in ("dlcz", "wcs")]
        assert outputs["flag"] == outputs["file"] != outputs["storage"]

    @pytest.mark.parametrize("argv", [
        ["fig3"], ["fig4"], ["fig4", "--slow-light"],
    ], ids=["fig3", "fig4", "fig4-slow-light"])
    def test_exact_medium_ignores_sampling_flags(self, tmp_path, argv):
        # the default and the slow-light media are exact: no trial count,
        # seed or thread count reaches them
        figure = argv[0]
        runs = {"a": [1, 2, 100], "b": [99, 1, 5000]}
        for name, (seed, threads, trials) in runs.items():
            assert run(["--out", tmp_path / name, "--seed", seed, "--threads", threads,
                        "reproduce", *argv, "--trials", trials, "--n-max", 40,
                        "--zeta-range", "0.004,0.2,7"]) == 0
        for kind in ("dlcz", "wcs"):
            name = f"{figure}_{kind}.csv"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_monte_carlo_medium_ignores_thread_count(self, tmp_path):
        # a 5 r_b cloud is past the exact medium: fig3 samples it, in 3
        # chunks, on one thread or on a pool of two; the seed moves it
        runs = {name: CASES[name] for name in ("fig3-long-1t", "fig3-long-2t")}
        runs["seed-4"] = list(CASES["fig3-long-1t"])
        runs["seed-4"][runs["seed-4"].index("--seed") + 1] = "4"
        outputs = {}
        for name, argv in runs.items():
            assert run_case(argv, tmp_path / name)["exit"] == 0
            outputs[name] = [(tmp_path / name / f"fig3_{kind}.csv").read_bytes()
                             for kind in ("dlcz", "wcs")]
        assert outputs["fig3-long-1t"] == outputs["fig3-long-2t"] != outputs["seed-4"]

    def test_unknown_figure_is_usage_error(self, tmp_path):
        assert run(["--out", tmp_path, "reproduce", "fig9"]) == 1


@pytest.mark.parametrize("figure", ["fig3", "figS5"])
class TestBatchRerun:
    """fig3's sweep and figS5 take each input kind's zeta values in one
    batch and, if it fails, each value alone."""

    def run(self, figure, tmp_path, zetas):
        flag = ["--zeta-range", f"{zetas},2"] if figure == "fig3" else ["--zeta", zetas]
        return run(["--out", tmp_path, "reproduce", figure, "--n-max", 40, *flag])

    def test_batch_error_when_no_value_fails_alone(self, figure, tmp_path, capsys,
                                                   monkeypatch):
        sizes = []

        def batch_fails(cfg, zetas):
            sizes.append(zetas.size)
            if zetas.size > 1:
                raise NumericalError(f"batch of {zetas.size}")
            return _zeta_to_params(cfg, zetas)

        for module in (pipeline, cli):
            monkeypatch.setattr(module, "_zeta_to_params", batch_fails)
        assert self.run(figure, tmp_path, "0.01,0.05") == 3
        assert capsys.readouterr().err == "numerical failure: batch of 2\n"
        assert sizes == [2, 1, 1]

    def test_first_value_to_fail_decides(self, figure, tmp_path, capsys, monkeypatch):
        # 0.05 fails in its source state, after its inversion; 1.5 fails at
        # its inversion.  The batch meets 1.5's error first, but alone 0.05
        # fails first, so its error wins, as when figS5 took one value at a time.
        def fails(p, t_w, n_max):
            raise NumericalError(f"read state at p={p[0]:.3g}")

        for module in (pipeline, source):
            monkeypatch.setattr(module, "_read_state_rows", fails)
        assert self.run(figure, tmp_path, "0.05,1.5") == 3
        assert capsys.readouterr().err.startswith("numerical failure: read state at p=")
        monkeypatch.undo()
        assert self.run(figure, tmp_path, "0.05,1.5") == 2
        assert "strength 1.5 not attainable for dlcz" in capsys.readouterr().err


class TestFitPegCommand:
    def test_closed_loop(self, tmp_path):
        from rydstats import RateModelParams, predict_probabilities

        rows = ["p_w,p_r_given_w"]
        for pw in np.linspace(0.002, 0.05, 10):
            p = float((pw - 1e-4) / 0.21)
            out = predict_probabilities(RateModelParams(p=p))
            rows.append(f"{float(pw)!r},{out.p_r_given_w!r}")
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n")
        assert run(["--out", tmp_path, "fit-peg", data]) == 0
        fit = json.loads((tmp_path / "p_eg_fit.json").read_text())
        assert fit["p_eg"] == pytest.approx(0.20, abs=1e-6)
        assert fit["residual_norm"] < 1e-10

    def test_pegged_fit_warns_in_one_plain_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("p_w,p_r_given_w\n0.001,0.031\n0.005,0.034\n0.01,0.037\n0.02,0.04\n")
        assert run(["--out", tmp_path, "fit-peg", data]) == 0
        assert capsys.readouterr().err == (
            "warning: fitted branching ratio pegged at boundary (1); "
            "the data may not constrain it\n"
        )
        assert json.loads((tmp_path / "p_eg_fit.json").read_text())["p_eg"] == 1.0

    def test_nan_row_rejected_with_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("p_w,p_r_given_w\n0.01,0.03\n0.02,nan\n0.03,0.05\n0.04,0.06\n")
        assert run(["--out", tmp_path, "fit-peg", data]) == 2
        assert f"{data}:3: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "p_eg_fit.json").exists()

    def test_insufficient_rows(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("p_w,p_r_given_w\n0.01,0.03\n")
        assert run(["--out", tmp_path, "fit-peg", data]) == 2


def _p_w_message(p_w, p_nw=1e-4, t_w=0.21):
    return (f"error: p_w={p_w} implies an excitation probability outside [0, 1) "
            f"by p_w = p t_w + p_nw at p_nw={p_nw}, t_w={t_w}\n")


class TestExcitationProbability:
    """figS3 and fit-peg invert p_w = p t_w + p_nw in one place, with one
    message that names the first p_w whose p is outside [0, 1)."""

    @pytest.mark.parametrize("config, expected", [
        ("p_nw = 0.5\n", _p_w_message(0.0002, p_nw=0.5)),
        # p overflows to inf, which the message does not print
        ("t_w = 5e-324\n", _p_w_message(0.0002, t_w=5e-324)),
    ], ids=["negative-p", "p-overflows"])
    def test_figS3_names_the_first_p_w(self, tmp_path, capsys, config, expected):
        (tmp_path / "run.cfg").write_text(config)
        assert run(["--config", tmp_path / "run.cfg", "--out", tmp_path, "reproduce",
                    "figS3"]) == 2
        assert capsys.readouterr().err == expected

    def test_fit_peg_names_the_first_p_w(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("p_w,p_r_given_w\n0.01,0.03\n0.5,0.04\n0.9,0.05\n")
        assert run(["--out", tmp_path, "fit-peg", data]) == 2
        assert capsys.readouterr().err == _p_w_message(0.5)
        assert not (tmp_path / "p_eg_fit.json").exists()

    @pytest.mark.parametrize("argv, config, message", [
        (["reproduce", "fig3", "--zeta-range", "0.4,0.004,3"], "",
         "zeta grid needs 0 < zeta_min < zeta_max, got 0.4, 0.004"),
        (["reproduce", "figS3"], "pw_min = 0.05\n",
         "pw grid needs 0 < pw_min < pw_max, got 0.05, 0.05"),
    ], ids=["zeta", "pw"])
    def test_grid_message_names_its_keys(self, tmp_path, capsys, argv, config, message):
        (tmp_path / "run.cfg").write_text(config)
        assert run(["--config", tmp_path / "run.cfg", "--out", tmp_path, *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestExitCodes:
    def test_usage_error(self):
        assert run(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["--out", tmp_path, "g2", tmp_path / "absent.csv"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["blockade", "--medium-scale", 5, "--trials", 100, "--n", 3],
             "--medium-scale needs --slow-light"),
            (["reproduce", "fig3", "--zeta", "0.1"], "--zeta is read only by figS5, not fig3"),
            (["reproduce", "figS5", "--zeta-range", "0.01,0.3,5"],
             "--zeta-range is read only by fig3 and fig4, not figS5"),
            (["reproduce", "figS3", "--slow-light"],
             "--slow-light is read only by fig3 and fig4, not figS3"),
            (["reproduce", "figS5", "--slow-light"],
             "--slow-light is read only by fig3 and fig4, not figS5"),
            (["reproduce", "fig3", "--efficiency-table", "absent.csv"],
             "--efficiency-table is read only by figS3, not fig3"),
        ],
        ids=["medium-scale", "zeta", "zeta-range", "slow-light-figS3", "slow-light-figS5",
             "efficiency-table"],
    )
    def test_ignored_flag_is_usage_error(self, tmp_path, argv, message, capsys):
        out = tmp_path / "out"
        assert run(["--seed", 3, "--out", out, *argv]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", -1, "blockade", "--trials", 100, "--n-max", 2],
            ["--seed", -1, "g2", "clicks.csv"],
            ["--threads", 0, "blockade", "--trials", 100, "--n-max", 2],
            ["--threads", -3, "blockade", "--trials", 100, "--n-max", 2],
            ["--threads", 0, "g2", "clicks.csv"],
            ["--threads", -3, "g2", "clicks.csv"],
            ["blockade", "--rb", "nan", "--trials", 100, "--n-max", 2],
        ],
        ids=["seed-blockade", "seed-g2", "threads-0", "threads-negative", "threads-0-g2",
             "threads-negative-g2", "rb-nan"],
    )
    def test_flag_out_of_range_is_data_error(self, tmp_path, argv, capsys):
        (tmp_path / "clicks.csv").write_text("# trials=20\ntrial_id,detector,time_ns\n")
        argv = [tmp_path / a if a == "clicks.csv" else a for a in argv]
        assert run(["--out", tmp_path, *argv]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["reproduce", "figS5", "--zeta", "abc"],
             "argument --zeta: expected comma-separated numbers, got 'abc'"),
            (["reproduce", "fig3", "--zeta-range", "0.01,x,5"],
             "argument --zeta-range: expected comma-separated numbers, got '0.01,x,5'"),
            (["g2", "clicks.csv", "--detectors-1", ","],
             "argument --detectors-1: expected comma-separated detector names, got ','"),
            (["g2", "clicks.csv", "--detectors-2", " , "],
             "argument --detectors-2: expected comma-separated detector names, got ' , '"),
        ],
        ids=["zeta", "zeta-range", "detectors-1", "detectors-2"],
    )
    def test_malformed_list_flag_names_expected_form(self, tmp_path, argv, expected, capsys):
        assert run(["--out", tmp_path, *argv]) == 1
        err = capsys.readouterr().err
        assert expected in err
        assert "_list" not in err

    @pytest.mark.parametrize(
        "files, argv, message",
        [
            ({"hdr.csv": "# trials=5\ntrial,detector,time_ns\n"}, ["g2", "hdr.csv"],
             "hdr.csv:2: expected header 'trial_id,detector,time_ns', "
             "got 'trial,detector,time_ns'"),
            ({"bare.csv": "# trials=5\n# no header\n"}, ["g2", "bare.csv"],
             "bare.csv: missing column header 'trial_id,detector,time_ns'"),
            ({"noeq.cfg": "seed 7\n"}, ["--config", "noeq.cfg", "reproduce", "figS3"],
             "noeq.cfg:1: expected 'key = value'"),
            ({"run.cfg": "zeta_values = ,\n"}, ["--config", "run.cfg", "reproduce", "figS5"],
             "run.cfg:1: bad value for zeta_values: empty list"),
            ({}, ["reproduce", "fig3", "--zeta-range", "0.1,0.2"],
             "--zeta-range expects MIN,MAX,POINTS"),
            # the one pair found where geomspace's powers overflow
            ({"run.cfg": "zeta_min = 1.7976931348623155e308\n"
                         "zeta_max = 1.7976931348623157e308\n"},
             ["--config", "run.cfg", "reproduce", "fig3"],
             "log-spaced grid from 1.7976931348623155e+308 to 1.7976931348623157e+308 "
             "overflows"),
        ],
        ids=["click-header", "no-click-header", "config-no-equals", "empty-list",
             "zeta-range-two-values", "grid-overflow"],
    )
    def test_data_error_names_its_cause(self, tmp_path, monkeypatch, capsys, files, argv,
                                        message):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert run(["--out", "out", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("points", ["2.5", "0", "-1", "nan"])
    def test_zeta_range_points_must_be_positive_integer(self, tmp_path, points):
        code = run(["--out", tmp_path, "reproduce", "fig3", "--trials", 100,
                    "--zeta-range", f"0.01,0.3,{points}"])
        assert code == 2
        assert not list(tmp_path.glob("fig3_*.csv"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["blockade", "--n-max", 10_000_000, "--trials", 10],
            # 1e15 points: more bytes than a 64-bit address space holds
            ["reproduce", "fig3", "--zeta-range", "0.004,0.4,1e15", "--trials", 100],
        ],
        ids=["blockade-n-max", "fig3-zeta-points"],
    )
    def test_impossible_allocation_is_data_error(self, tmp_path, argv, capsys):
        assert run(["--out", tmp_path, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, config, key, value",
        [
            (["reproduce", "fig3", "--n-max", 2**62], None, "n_max", 2**62),
            (["reproduce", "figS5", "--n-max", 2**62], None, "n_max", 2**62),
            (["blockade", "--n-max", 2**62, "--trials", 10], None, "n_max", 2**62),
            (["reproduce", "fig3", "--zeta-range", f"0.004,0.4,{2**70}"], None,
             "zeta_points", 2**70),
            (["reproduce", "figS3"], f"pw_points = {2**70}\n", "pw_points", 2**70),
            # within np.intp's range / 8, but 2**60 once rounded to a double
            (["reproduce", "figS3"], f"pw_points = {2**60 - 1}\n", "pw_points", 2**60 - 1),
        ],
        ids=["fig3-n-max", "figS5-n-max", "blockade-n-max", "fig3-zeta-points",
             "figS3-pw-points", "figS3-pw-points-rounded"],
    )
    def test_size_numpy_cannot_index_is_data_error(self, tmp_path, argv, config, key, value,
                                                    capsys):
        # refused by the range check, before numpy is asked for the array
        head, where = ["--out", tmp_path], ""
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            head, where = ["--config", tmp_path / "run.cfg", *head], f"{tmp_path / 'run.cfg'}:1: "
        assert run([*head, *argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {where}value out of range for {key}: {value}\n"
        assert "Traceback" not in err

    def test_bare_memory_error_is_out_of_memory(self, tmp_path, monkeypatch, capsys):
        # Python's own refusal of an allocation carries no text
        def refuse(*_):
            raise MemoryError()

        monkeypatch.setitem(cli._COMMANDS, "fit-peg", refuse)
        assert run(["--out", tmp_path, "fit-peg", "data.csv"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["reproduce", "fig3", "--zeta-range", "0.004,inf,3", "--trials", 100], None,
             "error: value out of range for zeta_max: inf"),
            (["reproduce", "figS3"], "pw_max = inf\n",
             "value out of range for pw_max: inf"),
        ],
        ids=["zeta-range", "pw-max"],
    )
    def test_infinite_grid_end_is_rejected_without_warning(self, tmp_path, argv, config,
                                                            message):
        # a separate interpreter, so that a warning would reach stderr
        head = ["--out", tmp_path]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            head = ["--config", tmp_path / "run.cfg", *head]
        env = dict(os.environ, PYTHONPATH=str(Path(rydstats.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "rydstats.cli", *(str(a) for a in head + argv)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize("argv, name", [
        (["reproduce", "fig3", "--zeta-range", "0.004,0.4,5"], "fig3_dlcz.csv"),
        (["reproduce", "figS5"], "figS5_distributions.csv"),
    ], ids=["fig3", "figS5"])
    def test_tiny_write_transmission_runs(self, tmp_path, argv, name):
        # -expm1(n log1p(-t_w)) keeps the herald weights exact where
        # 1 - (1 - t_w)^n rounded to zero, and their power-of-two scale
        # keeps them normal down to the smallest double
        for t_w in [1e-300, 1e-310, 2e-320, 1.5e-323, 5e-324]:
            (tmp_path / "run.cfg").write_text(f"t_w = {t_w!r}\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run(["--config", tmp_path / "run.cfg", "--out", tmp_path, *argv])
            assert code == 0, t_w
            rows = (tmp_path / name).read_text().splitlines()[1:]
            values = np.array([[float(v) for v in row.split(",")] for row in rows])
            assert values.size and np.all(np.isfinite(values)), t_w

    def test_non_finite_json_is_numerical_error(self, tmp_path):
        from rydstats.cli import _write_json

        with pytest.raises(NumericalError):
            _write_json(tmp_path / "r.json", {"x": float("nan")})
        assert not (tmp_path / "r.json").exists()

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        assert run(["--config", cfg, "--out", tmp_path, "reproduce", "figS5"]) == 2


#: The float keys of the configuration file: the physics and grid values.
FLOAT_KEYS = [name for name, key in _KEYS.items() if key.parse in (float, _float_list)]
#: Edges of the double range and of the unit interval; None keeps the default.
EDGES = [5e-324, 1e-310, 1e-300, 1 - 2**-53, 1.0, 0.0, sys.float_info.max, None]
FIG3 = ["reproduce", "fig3", "--n-max", "30", "--trials", "1000", "--zeta-range", "0.01,0.1,3"]
FIGS3 = ["reproduce", "figS3"]
EDGE_COMMANDS = [FIGS3, FIG3, ["reproduce", "figS5", "--n-max", "30", "--zeta", "0.01"],
                 ["fit-peg", "fit_peg.csv"]]


#: The integer and list keys that g2 reads, as config-file text at the
#: edges of their ranges.  No resample count between 1000 and 2**62: numpy
#: would allocate its draws before anything could fail.
G2_EDGES = {
    **{name: ["0", "1", "300", "500", "1100", str(2**63 - 1), str(2**63)]
       for name in ("signal_start_ns", "signal_end_ns", "noise_start_ns", "noise_end_ns")},
    **{name: ["D1", "D2", "D3", "D2,D3", "D1,D2,D3", "D3,D2,D3"]
       for name in ("detectors_1", "detectors_2")},
    "resamples": ["99", "100", "1000", str(2**62), str(2**63 - 1), str(10**20)],
}
G2 = ["g2", "clicks.csv"]


def _no_constant(name):
    raise ValueError(f"JSON holds {name}")


def _run_edge_case(argv, lines):
    """Run ``argv`` on a config file of ``lines``; check the exit code,
    stderr and every output file."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "edge.cfg", Path(tmp) / "out"
        config.write_text("".join(f"{line}\n" for line in lines))
        record = run_case(["--config", str(config), *argv], out)
        assert record["exit"] in (0, 1, 2, 3), record
        assert "Traceback" not in record["stderr"], record
        assert not re.search(r"\b(nan|inf)\b", record["stderr"], re.IGNORECASE), record
        for path in out.glob("*.csv"):
            read_table(path, path.read_text().split("\n", 1)[0].split(","))
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_no_constant)


class TestConfigEdges:
    """The exit-code contract for config values at the edges of their ranges."""

    @settings(max_examples=100, derandomize=True, deadline=2000)
    @given(
        argv=st.sampled_from(EDGE_COMMANDS),
        values=st.dictionaries(st.sampled_from(FLOAT_KEYS), st.sampled_from(EDGES),
                               min_size=1, max_size=2),
    )
    # mean**2 underflows in g2 although the mean is positive
    @example(argv=FIG3, values={"eta_eit": 5e-324})
    @example(argv=FIG3, values={"eta_compression": 1e-300})
    @example(argv=FIG3, values={"eta_compression_lo": 1e-300})
    # p_w p_r underflows; p overflows; geomspace overflows
    @example(argv=FIGS3, values={"p_nw": 5e-324, "pw_min": 1e-300})
    @example(argv=FIGS3, values={"t_w": 5e-324})
    @example(argv=FIGS3, values={"pw_max": sys.float_info.max})
    def test_exit_code_and_outputs(self, argv, values):
        lines = []
        for name, value in values.items():
            value = _KEYS[name].default if value is None else value
            text = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
            lines.append(f"{name} = {text}")
        _run_edge_case(argv, lines)

    @settings(max_examples=60, derandomize=True, deadline=2000)
    @given(values=st.lists(
        st.sampled_from(sorted(G2_EDGES)).flatmap(
            lambda name: st.tuples(st.just(name), st.sampled_from(G2_EDGES[name]))),
        min_size=1, max_size=3).map(dict))
    # resample counts that numpy refuses before it allocates
    @example(values={"resamples": str(2**63 - 1)})
    @example(values={"resamples": str(10**20)})
    # window ends past the int64 times
    @example(values={"noise_start_ns": str(2**63 - 1), "noise_end_ns": str(2**63)})
    def test_g2_exit_code_and_outputs(self, values):
        _run_edge_case(G2, [f"{name} = {text}" for name, text in values.items()])


#: The golden click file, split into its preamble and its 2225 records.
CLICK_LINES = (INPUTS / "clicks.csv").read_text().splitlines()
#: Field values a record may take: odd spellings, bad numbers and bytes
#: (``\udcff`` is written as the byte 0xff), and ids near the trial count.
ODD_FIELDS = ["", " 5", "+5", "1_0", "-3", "007", "1999", "2000", "99999999999999999999",
              "123456789012345678", "nan", "inf", "1e2", "290.5", "é", "\0", "\udcff",
              "D9", "D2", "d2"]
ODD_LINES = ["", "  ", "# note", "# trials=0", "# trials=2000"]
TRIAL_LINES = ["# trials=2000", "# trials=0", "# trials=1", "#trials = 2000",
               "# trials=99999999999999999999"]


def _mutate(record: str, mutation) -> list[str]:
    """The lines that replace ``record`` under one drawn mutation."""
    kind, arg = mutation
    fields = record.split(",")
    if kind == "field":
        index, value = arg
        fields[index] = value
    elif kind == "drop-field":
        del fields[arg]
    elif kind == "extra-field":
        fields.append(arg)
    elif kind == "line":
        return [arg]
    elif kind == "delete":
        return []
    elif kind == "duplicate":
        return [record, record]
    return [",".join(fields)]


MUTATIONS = st.one_of(
    st.tuples(st.just("field"), st.tuples(st.integers(0, 2), st.sampled_from(ODD_FIELDS))),
    st.tuples(st.just("drop-field"), st.integers(0, 2)),
    st.tuples(st.just("extra-field"), st.sampled_from(["7", ""])),
    st.tuples(st.just("line"), st.sampled_from(ODD_LINES)),
    st.tuples(st.sampled_from(["delete", "duplicate"]), st.none()),
)


class TestClickFileMutations:
    """The exit-code contract for click files: records of the golden click
    file mutated (all, none or only the first kept), run through ``g2``."""

    @settings(max_examples=60, derandomize=True, deadline=2000)
    @given(
        trials_line=st.sampled_from(TRIAL_LINES),
        mutations=st.dictionaries(st.integers(0, len(CLICK_LINES) - 3), MUTATIONS,
                                  min_size=0, max_size=3),
        kept=st.sampled_from([None, 0, 1]),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        final_newline=st.booleans(),
        bom=st.booleans(),
    )
    # no records: no signal clicks, or no trials
    @example(trials_line="# trials=2000", mutations={}, kept=0, newline="\n",
             final_newline=True, bom=False)
    @example(trials_line="# trials=0", mutations={}, kept=0, newline="\n",
             final_newline=True, bom=False)
    def test_exit_code_and_message(self, trials_line, mutations, newline, final_newline, bom,
                                   kept):
        records = CLICK_LINES[2:][:kept]
        lines = [trials_line, CLICK_LINES[1]]
        for index, record in enumerate(records):
            lines += _mutate(record, mutations[index]) if index in mutations else [record]
        text = newline.join(lines) + (newline if final_newline else "")
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "clicks.csv", Path(tmp) / "out"
            path.write_bytes((b"\xef\xbb\xbf" if bom else b"")
                             + text.encode("utf-8", "surrogateescape"))
            record = run_case(["g2", str(path), "--resamples", "100"], out)
        assert record["exit"] in (0, 2), record
        assert "Traceback" not in record["stderr"], record
        if record["exit"] == 2:
            assert str(path) in record["stderr"], record
