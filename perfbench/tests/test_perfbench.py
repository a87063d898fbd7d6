"""Tests of the benchmark itself: small runs of every workload, oracles
that reject corrupted outputs, the tracer, and the BENCHMARK.json contract.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import oracles
import run
from oracles import CheckFailed
from rydstats import fock, pipeline, transfer
from rydstats.source import SourceModel, conditional_read_state
from workloads import WORKLOADS, Clicks, FigPair, SlowLight, SweepDense

ROOT = Path(__file__).resolve().parents[2]

SMALL = {
    "fig-pair": FigPair(trials=2000),
    "sweep-dense": SweepDense(points=11),
    "clicks-1e6": Clicks(trials=100_000),
    "slowlight-2t": SlowLight(trials=2000, n_max=30),
}
SEED = 5


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """workload name -> (workload, inputs, output directory of one operation)."""
    result = {}
    for name, workload in SMALL.items():
        base = tmp_path_factory.mktemp(name)
        inputs = workload.expect(workload.setup(SEED, base))
        out = base / "out"
        out.mkdir()
        workload.operation(inputs, out)
        result[name] = (workload, inputs, out)
    return result


def corrupted(outputs, name, tmp_path):
    workload, inputs, out = outputs[name]
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    return workload, inputs, copy


def rewrite_column(path: Path, column: str, change) -> None:
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    values = change(np.array([row[names.index(column)] for row in rows]))
    for row, value in zip(rows, values):
        row[names.index(column)] = float(value)
    path.write_text(lines[0] + "\n" + "".join(
        ",".join(repr(v) for v in row) + "\n" for row in rows))


def rewrite_json(path: Path, **changes) -> None:
    payload = json.loads(path.read_text())
    payload.update(changes)
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_run_passes_every_check(name, tmp_path):
    workload = SMALL[name]
    runner = run.Runner(workload, workload.expect(workload.setup(SEED, tmp_path)), tmp_path)
    metrics = run.end_to_end(runner, lambda: 0.5, seconds=0)
    assert runner.failures == []
    assert runner.setup_samples == [0.5] * run.SETUP_REPEATS
    assert metrics["pass_ratio"] == (1.0, "ratio")
    assert metrics["wall_s"][0] > 0 and metrics["cpu_s"][0] > 0
    assert metrics["setup_s"] == (0.5, "s")


def test_setup_probe_hands_over_the_inputs(tmp_path):
    seconds, inputs = run.measure_setup("slowlight-2t", SEED, tmp_path / "inputs", keep=True)
    assert seconds > 0
    assert inputs == WORKLOADS["slowlight-2t"].setup(SEED, tmp_path)
    seconds, nothing = run.measure_setup("slowlight-2t", SEED, tmp_path / "probe")
    assert seconds > 0 and nothing is None
    assert not (tmp_path / "probe").exists()


def test_clicks_inputs_hold_counts_not_the_stream(outputs):
    inputs = outputs["clicks-1e6"][1]
    assert "stream" not in inputs
    assert inputs["counts"]["N"] == SMALL["clicks-1e6"].trials
    assert pickle.loads(pickle.dumps(inputs))["counts"] == inputs["counts"]


def test_traced_run_matches_untraced_and_reports_every_layer(tmp_path):
    workload = SMALL["fig-pair"]
    runner = run.Runner(workload, workload.setup(SEED, tmp_path), tmp_path)
    metrics = run.per_layer(runner, layers.Tracer(), 0, SEED, SMALL["slowlight-2t"])
    assert runner.failures == []
    assert [s["traced"] for s in runner.samples] == \
        [False, False] + [True, False] * run.MIN_TRACED
    assert set(metrics) == {name for name, _, _ in layers.metric_specs()}
    assert metrics["blockade.blockade_matrix.calls"] == (2, "count")
    assert metrics["pipeline.sweep.points"] == (84, "count")
    assert metrics["cli.main.fig3.s"][0] > 0 and metrics["cli.main.g2.s"][0] == 0


def test_tracer_rebinds_imported_names_and_restores_them():
    tracer = layers.Tracer()
    original = transfer.loss_matrix
    compose = transfer.TransferMatrix.compose
    tracer.install()
    try:
        assert pipeline.loss_matrix is transfer.loss_matrix is not original
        assert pipeline.loss_matrix.__wrapped__ is original
        tracer.op = "probe"
        pipeline.zeta_to_param(pipeline.PipelineConfig(input_kind="wcs"), 0.05)
    finally:
        tracer.uninstall()
    assert pipeline.loss_matrix is transfer.loss_matrix is original
    assert transfer.TransferMatrix.compose is compose
    stats = tracer.op_stats()["probe"]
    assert stats["pipeline.zeta_to_param"]["calls"] == 1
    assert stats["fock.coherent_mu_upper_bound"]["calls"] == 1
    assert stats["roots.bisect_monotone"]["calls"] == 1
    assert tracer.counts["probe"]["roots.bisect_monotone.f_evals"] > 10
    inner = stats["fock.coherent_mu_upper_bound"]["s"] + stats["roots.bisect_monotone"]["s"]
    outer = stats["pipeline.zeta_to_param"]
    assert outer["self_s"] == pytest.approx(outer["s"] - inner)


# --- each oracle rejects a corrupted output ----------------------------------

def test_fig_pair_rejects_shifted_plateau(outputs, tmp_path):
    workload, inputs, out = corrupted(outputs, "fig-pair", tmp_path)
    workload.check(inputs, out)
    rewrite_column(out / "fig3_wcs.csv", "g2_out", lambda v: v + 0.02)
    with pytest.raises(CheckFailed, match="lowest-zeta g2_out"):
        workload.check(inputs, out)


def test_fig_pair_rejects_rising_efficiency(outputs, tmp_path):
    workload, inputs, out = corrupted(outputs, "fig-pair", tmp_path)
    rewrite_column(out / "fig4_dlcz.csv", "eta", lambda v: v[::-1])
    with pytest.raises(CheckFailed, match="decay monotonically"):
        workload.check(inputs, out)


def test_fig_pair_rejects_missing_and_non_finite_output(outputs, tmp_path):
    workload, inputs, out = corrupted(outputs, "fig-pair", tmp_path)
    rewrite_column(out / "fig3_dlcz.csv", "g2_in", lambda v: v * math.nan)
    with pytest.raises(CheckFailed, match="non-finite"):
        workload.check(inputs, out)
    (out / "fig3_dlcz.csv").unlink()
    with pytest.raises(CheckFailed, match="fig3_dlcz.csv"):
        workload.check(inputs, out)


@pytest.mark.parametrize("file, column, factor, message", [
    ("fig3_wcs.csv", "param", 1 + 1e-6, "zeta\\(param\\)"),
    ("figS5_distributions.csv", "wcs_zeta_0.05", 1 + 1e-6, "sums to"),
    ("figS3_cross_correlation.csv", "g2wr_no_storage_noise_free", 1 + 1e-6, "noise-free"),
])
def test_sweep_dense_rejects_perturbed_tables(outputs, tmp_path, file, column, factor, message):
    workload, inputs, out = corrupted(outputs, "sweep-dense", tmp_path)
    workload.check(inputs, out)
    rewrite_column(out / file, column, lambda v: v * factor)
    with pytest.raises(CheckFailed, match=message):
        workload.check(inputs, out)


def test_sweep_dense_rejects_wrong_fit(outputs, tmp_path):
    workload, inputs, out = corrupted(outputs, "sweep-dense", tmp_path)
    rewrite_json(out / "p_eg_fit.json", p_eg=inputs["p_eg"] + 1e-5)
    with pytest.raises(CheckFailed, match="generating"):
        workload.check(inputs, out)


@pytest.mark.parametrize("key, change", [
    ("n12", lambda v: v + 1),
    ("N", lambda v: v - 1),
    ("n1", lambda v: v + 1e-6),
])
def test_clicks_rejects_miscounted_report(outputs, tmp_path, key, change):
    workload, inputs, out = corrupted(outputs, "clicks-1e6", tmp_path)
    workload.check(inputs, out)
    path = out / "g2_report.json"
    rewrite_json(path, **{key: change(json.loads(path.read_text())[key])})
    with pytest.raises(CheckFailed, match=key):
        workload.check(inputs, out)


def test_clicks_rejects_g2_off_the_beam_splitter_expectation(outputs, tmp_path):
    workload, inputs, out = corrupted(outputs, "clicks-1e6", tmp_path)
    path = out / "g2_report.json"
    report = json.loads(path.read_text())
    rewrite_json(path, g2_corrected=report["g2_corrected"] + 5 * report["error"])
    with pytest.raises(CheckFailed, match="g2_corrected"):
        workload.check(inputs, out)


def test_click_oracle_is_not_the_fock_g2():
    probs = conditional_read_state(SourceModel(0.05, 0.21), 15).probs
    assert oracles.click_g2(probs) == pytest.approx(0.16574, abs=5e-6)
    assert fock.FockDistribution(probs).g2() == pytest.approx(0.16782, abs=5e-6)
    # background only adds accidentals, pulling the raw value towards 1
    assert oracles.click_g2(probs) < oracles.click_g2(probs, 0.01, 0.01) < 1


def test_slowlight_rejects_shifted_pair_survival(outputs, tmp_path):
    workload, inputs, out = corrupted(outputs, "slowlight-2t", tmp_path)
    workload.check(inputs, out)
    path = out / "blockade_matrix.csv"
    expected = oracles.pair_survival(10.5, 37.5)
    shift = 5 * math.sqrt(expected * (1 - expected) / workload.trials)
    rewrite_column(path, "2", lambda v: v + shift * (np.arange(v.size) == 2)
                   - shift * (np.arange(v.size) == 1))
    with pytest.raises(CheckFailed, match="pair survival"):
        workload.check(inputs, out)


def test_slowlight_rejects_column_that_does_not_sum_to_one(outputs, tmp_path):
    workload, inputs, out = corrupted(outputs, "slowlight-2t", tmp_path)
    rewrite_column(out / "blockade_matrix.csv", "7", lambda v: v + 1e-9 * (np.arange(v.size) == 0))
    with pytest.raises(CheckFailed, match="sums to 1"):
        workload.check(inputs, out)


# --- the command and its contract ---------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.metric_specs()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert list(e2e) == ["wall_s", "cpu_s", "peak_rss_mb", "setup_s", "pass_ratio"]
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        [m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"][0]


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig-pair", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
