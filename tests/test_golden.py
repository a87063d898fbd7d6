"""Golden outputs: the CLI's deterministic results, checked against files
generated by ``tests/golden/update.py``.

Each case runs ``rydstats.cli.main`` in process, with ``tests/golden/inputs``
as the working directory and a fresh ``--out`` directory.  Its exit code,
stdout, stderr and every file it writes must match the set under
``tests/golden``: numbers to 1e-12 relative, so that other numpy and BLAS
builds pass, and every other byte exactly, with the output directory
masked as ``<OUT>``.

Left out: the blockade Monte Carlo (the ``blockade`` command and clouds
longer than ``EXACT_MAX_RADII`` blockade radii), the bootstrap ``error``
of the ``g2`` report, and ``synthesize``.  They draw from numpy's
``Generator``, whose streams numpy does not promise to keep across
versions (NEP 19).  For the same reason the click file was synthesized
once and is checked in:

    synthesize(conditional_read_state(SourceModel(0.05, 0.21), 15), 2000,
               WindowSpec(), (1e4, 1e4), seed=1)
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import pytest

from rydstats.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

#: A short grid that every geometry attains at n_max 40 (zeta = 0.4 is out
#: of the heralded source's range there).
GRID = ["--n-max", "40", "--zeta-range", "0.004,0.2,7"]

#: case -> arguments after ``--out DIR``.
CASES = {
    "figS3": ["reproduce", "figS3"],
    "figS3-efficiency-table": ["reproduce", "figS3", "--efficiency-table", "efficiency.csv"],
    "figS5": ["reproduce", "figS5"],
    "fig3": ["reproduce", "fig3", *GRID],
    "fig3-filter": ["--config", "filter.cfg", "reproduce", "fig3", *GRID],
    "fig3-identity": ["--config", "identity.cfg", "reproduce", "fig3", *GRID],
    "fig4-slow-light": ["reproduce", "fig4", "--slow-light", *GRID],
    "fit-peg": ["fit-peg", "fit_peg.csv"],
    "g2": ["--seed", "3", "g2", "clicks.csv", "--resamples", "100"],
    "usage-error": ["reproduce", "fig3", "--zeta", "0.1"],
    "data-error": ["reproduce", "fig3", "--n-max", "2"],
    "numerical-error": ["--config", "underflow.cfg", "reproduce", "figS5"],
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run_case(argv: list[str], out: Path) -> tuple[dict, dict[str, str]]:
    """The console record ({exit, stdout, stderr}, output directory masked)
    and {file name: text} of one CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--out", str(out), *argv])
    finally:
        os.chdir(cwd)
    console = {name: text.getvalue().replace(str(out), "<OUT>")
               for name, text in (("stdout", stdout), ("stderr", stderr))}
    files = {}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        text = path.read_text()
        if path.name == "g2_report.json":  # its bootstrap error is random
            report = json.loads(text)
            del report["error"]
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        files[path.name] = text
    return {"exit": code, **console}, files


def assert_same(got: str, want: str, where: str) -> None:
    """Equal text around the numbers, and numbers equal to 1e-12 relative.
    Below the smallest normal double a number holds fewer digits than that
    (figS5's far tail is subnormal), so there any two values agree."""
    assert _NUMBER.split(got) == _NUMBER.split(want), f"{where}: text differs"
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want), strict=True):
        assert math.isclose(float(a), float(b), rel_tol=1e-12,
                            abs_tol=sys.float_info.min), (
            f"{where}: {a} != {b}")


@pytest.fixture(scope="module")
def console_records() -> dict:
    return json.loads((GOLDEN / "console.json").read_text())


def test_every_case_has_a_record(console_records):
    assert sorted(console_records) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_matches_golden(case, tmp_path, console_records):
    console, files = run_case(CASES[case], tmp_path / "out")
    want = console_records[case]
    assert console["exit"] == want["exit"]
    for stream in ("stdout", "stderr"):
        assert_same(console[stream], want[stream], f"{case} {stream}")
    saved = GOLDEN / case
    names = sorted(p.name for p in saved.iterdir()) if saved.is_dir() else []
    assert sorted(files) == names
    for name in names:
        assert_same(files[name], (saved / name).read_text(), f"{case}/{name}")
