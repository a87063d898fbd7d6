"""Golden outputs: the CLI's deterministic results, checked against files
generated by ``tests/golden/update.py``.

Each case of ``tests/golden/cases.py`` outside ``COMPARE_ONLY`` runs in
process with a fresh ``--out`` directory.  Its exit code, stdout, stderr
and every file it writes must match the set under ``tests/golden``:
numbers to 1e-12 relative, so that other numpy and BLAS builds pass, and
every other byte exactly, with the output directory masked as ``<OUT>``.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import threading

import pytest

from golden.cases import CASES, GOLDEN, INPUTS, STORED, run_case, stored_files

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


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
    assert sorted(console_records) == sorted(STORED)


def test_stored_cases_cover_every_exit_code(console_records):
    # 0 ok, 1 usage, 2 data, 3 numerical: each has a case whose message is kept
    assert {record["exit"] for record in console_records.values()} == {0, 1, 2, 3}


@pytest.mark.parametrize("case", STORED)
def test_matches_golden(case, tmp_path, console_records):
    out = tmp_path / "out"
    console = run_case(CASES[case], out)
    files = stored_files(out)
    want = console_records[case]
    assert console["exit"] == want["exit"]
    for stream in ("stdout", "stderr"):
        assert_same(console[stream], want[stream], f"{case} {stream}")
    saved = GOLDEN / case
    names = sorted(p.name for p in saved.iterdir()) if saved.is_dir() else []
    assert sorted(files) == names
    for name in names:
        assert_same(files[name], (saved / name).read_text(), f"{case}/{name}")


def test_unsorted_clicks_report_what_sorted_ones_do(tmp_path):
    # the same records reversed, with a comment: g2 reads the body twice and
    # line by line, and every number, the bootstrap error too, stays the same
    stored, ran = [], []
    for case in ("g2", "g2-unsorted"):
        assert run_case(CASES[case], tmp_path / case)["exit"] == 0
        for reports, text in ((stored, (GOLDEN / case / "g2_report.json").read_text()),
                              (ran, (tmp_path / case / "g2_report.json").read_text())):
            report = json.loads(text)
            assert report.pop("source_file") == CASES[case][3]
            reports.append(report)
    assert stored[0] == stored[1]
    assert ran[0] == ran[1]


def _feed(fifo, data: bytes) -> None:
    try:
        with open(fifo, "wb") as fh:
            fh.write(data)
    except BrokenPipeError:  # the reader stopped early; its test fails on that
        pass


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
@pytest.mark.parametrize("case", ["g2", "g2-unsorted"])
def test_click_file_read_from_a_pipe(case, tmp_path):
    # as with `g2 <(cat clicks.csv)`: a pipe cannot seek, so g2 reads the
    # byte-order mark's place instead of peeking at it, and reads the body
    # once with every row open, the unsorted one too
    argv = list(CASES[case])
    name = argv[3]
    fifo = tmp_path / name
    os.mkfifo(fifo)
    argv[3] = str(fifo)
    writer = threading.Thread(target=_feed, args=(fifo, (INPUTS / name).read_bytes()))
    writer.start()
    try:
        console = run_case(argv, tmp_path / "out")
    finally:
        # a reader that opens and closes the pipe frees a writer still
        # waiting for one, had the run failed before it opened the pipe
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join()
    assert console == {"exit": 0, "stdout": "wrote <OUT>/g2_report.json\n", "stderr": ""}
    report = json.loads(stored_files(tmp_path / "out")["g2_report.json"])
    assert report.pop("source_file") == str(fifo)
    stored = json.loads((GOLDEN / case / "g2_report.json").read_text())
    assert stored.pop("source_file") == name
    assert_same(json.dumps(report, sort_keys=True), json.dumps(stored, sort_keys=True), case)
