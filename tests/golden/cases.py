"""Every checked case of the rydstats CLI, and the one way to run one.

``tests/test_golden.py`` checks each case outside ``COMPARE_ONLY``
against the outputs stored here, which ``update.py`` regenerates.
``tools/compare_cli.py`` runs every case on a source tree through

    PYTHONPATH=TREE/src python tests/golden/cases.py OUT

which runs each case with ``--out OUT/<case>`` and prints the console
records as JSON.  Every case runs with ``inputs/`` as its working
directory.  Standard library only: ``rydstats.cli`` is imported when a
case runs, from whichever tree is on the path.

The click file ``inputs/clicks.csv`` was synthesized once and is checked
in, since ``synthesize`` draws from numpy's ``Generator``:

    synthesize(conditional_read_state(SourceModel(0.05, 0.21), 15), 2000,
               WindowSpec(), (1e4, 1e4), seed=1)

``inputs/clicks_unsorted.csv`` holds the same records in reverse order,
with a ``# note`` line halfway, so ``g2-unsorted`` reads its body twice
and line by line, and must report what ``g2`` reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
INPUTS = GOLDEN / "inputs"

#: A short grid that every geometry attains at n_max 40 (zeta = 0.4 is out
#: of the heralded source's range there).
_GRID = ["--n-max", "40", "--zeta-range", "0.004,0.2,7"]

#: case -> arguments after ``--out DIR``.
CASES = {
    "figS3": ["reproduce", "figS3"],
    "figS3-efficiency-table": ["reproduce", "figS3", "--efficiency-table", "efficiency.csv"],
    "figS5": ["reproduce", "figS5"],
    "fig3": ["reproduce", "fig3", *_GRID],
    "fig3-filter": ["--config", "filter.cfg", "reproduce", "fig3", *_GRID],
    "fig3-identity": ["--config", "identity.cfg", "reproduce", "fig3", *_GRID],
    "fig4-slow-light": ["reproduce", "fig4", "--slow-light", *_GRID],
    "fit-peg": ["fit-peg", "fit_peg.csv"],
    "g2": ["--seed", "3", "g2", "clicks.csv", "--window", "0,300",
           "--noise-window", "500,1100", "--resamples", "100"],
    "g2-unsorted": ["--seed", "3", "g2", "clicks_unsorted.csv", "--window", "0,300",
                    "--noise-window", "500,1100", "--resamples", "100"],
    "usage-error": ["reproduce", "fig3", "--zeta", "0.1"],
    "data-error": ["reproduce", "fig3", "--n-max", "2"],
    "numerical-error": ["--config", "g2_underflow.cfg", "reproduce", "fig3", *_GRID],
    "config-range-error": ["--config", "range.cfg", "reproduce", "figS3"],
    "flag-range-error": ["g2", "clicks.csv", "--resamples", "99"],
    "fig3-default": ["--seed", "606", "reproduce", "fig3"],
    "fig4-default": ["--seed", "606", "reproduce", "fig4"],
    "fig4-slow-light-default": ["--seed", "606", "reproduce", "fig4", "--slow-light"],
    "fig3-31-points": ["--seed", "606", "reproduce", "fig3", "--trials", "20000",
                       "--zeta-range", "0.004,0.4,31"],
    "figS5-tiny-t_w": ["--config", "tiny_tw.cfg", "reproduce", "figS5"],
    "figS5-smallest-t_w": ["--config", "underflow.cfg", "reproduce", "figS5"],
    "blockade-rb0": ["blockade", "--rb", "0", "--trials", "1000", "--n-max", "6"],
    "blockade-1t": ["--seed", "7", "--threads", "1", "blockade", "--trials", "25000",
                    "--n-max", "12"],
    "blockade-2t": ["--seed", "7", "--threads", "2", "blockade", "--trials", "25000",
                    "--n-max", "12"],
    "blockade-slow-light": ["--seed", "7", "blockade", "--slow-light", "--trials", "25000",
                            "--n-max", "12"],
    "fig3-long-1t": ["--config", "long.cfg", "--seed", "3", "--threads", "1", "reproduce", "fig3",
                     "--trials", "25000", *_GRID],
    "fig3-long-2t": ["--config", "long.cfg", "--seed", "3", "--threads", "2", "reproduce", "fig3",
                     "--trials", "25000", *_GRID],
    "help": ["--help"],
    "reproduce-help": ["reproduce", "--help"],
}

#: Cases whose outputs are compared between trees but never stored.  The
#: blockade Monte Carlo, also fig3's medium for the 5 r_b cloud of
#: ``long.cfg`` (past what the exact medium covers), draws from numpy's
#: ``Generator``, whose streams numpy does not promise to keep across
#: versions (NEP 19), and argparse's help text changes between Python
#: versions.
COMPARE_ONLY = {"blockade-1t", "blockade-2t", "blockade-slow-light", "fig3-long-1t",
                "fig3-long-2t", "help", "reproduce-help"}

STORED = [case for case in CASES if case not in COMPARE_ONLY]


def run_case(argv: list[str], out: Path) -> dict:
    """Run ``rydstats.cli.main`` on ``--out OUT`` and ``argv`` in this
    process, with ``INPUTS`` as the working directory.  Returns the console
    record {exit, stdout, stderr}, with ``out`` masked as ``<OUT>``.  The
    exit code of ``--help`` is its SystemExit's; an uncaught exception is
    recorded as its one-line summary in place of the code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            from rydstats.cli import main

            code = main(["--out", str(out), *argv])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # one case's crash must not end the replay
        code = traceback.format_exception_only(type(exc), exc)[-1].strip()
    finally:
        os.chdir(cwd)
    return {"exit": code, **{name: text.getvalue().replace(str(out), "<OUT>")
                             for name, text in (("stdout", stdout), ("stderr", stderr))}}


def stored_files(out: Path) -> dict[str, str]:
    """{file name: text} of the outputs in ``out``, as the golden set
    stores them: the g2 report without its bootstrap ``error``, which is
    drawn from numpy's ``Generator``."""
    files = {}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        text = path.read_text()
        if path.name == "g2_report.json":
            report = json.loads(text)
            del report["error"]
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        files[path.name] = text
    return files


if __name__ == "__main__":
    root = Path(sys.argv[1])
    print(json.dumps({case: run_case(argv, root / case) for case, argv in CASES.items()}))
