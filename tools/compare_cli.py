"""Compare the CLI of two source trees, command by command.

    python tools/compare_cli.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository; its package is run from
``<tree>/src`` as ``python -m rydstats.cli`` in a subprocess, with
``PYTHONDONTWRITEBYTECODE=1`` so that neither tree gains files.  The
inputs (a config file, an efficiency table, fit-peg data and a click file
written by ``synthesize``) are built once, by OLD_TREE, in a temporary
directory that is also every command's working directory.

For each command the script compares the exit code, the names and bytes
of the files written to ``--out``, and stdout and stderr with the output
directory and the tree's path masked.  For a CSV file whose bytes differ
it also prints the largest relative change of a field, each field read
with ``float``.  It prints one line per command and exits 1 if any command
differs, 0 if none does.  Standard library only.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: Built once by the old tree: a 20 000-trial heralded click file with
#: 1e4 Hz of background on both detectors.
_CLICKS = """\
from rydstats import SourceModel, WindowSpec, conditional_read_state, synthesize
state = conditional_read_state(SourceModel(0.05, 0.21), 15)
synthesize(state, 20_000, WindowSpec(), (1e4, 1e4), seed=1).write_csv("clicks.csv")
"""

_INPUTS = {
    "tiny_tw.cfg": "t_w = 1e-300\n",
    "underflow_tw.cfg": "t_w = 5e-324\n",
    "filter.cfg": "blockade_radius = 20\n",
    "identity.cfg": "blockade_radius = 0\n",
    "efficiency.csv": "p_w,eta\n0.001,0.25\n0.005,0.22\n0.01,0.18\n0.02,0.12\n",
    "fit_peg.csv": "p_w,p_r_given_w\n0.001,0.031\n0.005,0.034\n0.01,0.037\n0.02,0.04\n",
}

#: The golden set's grid (tests/test_golden.py): every geometry attains it.
_GRID = ["--n-max", "40", "--zeta-range", "0.004,0.2,7"]

#: name -> arguments after ``--out DIR``.
COMMANDS = {
    "blockade-1t": ["--seed", "7", "--threads", "1", "blockade", "--trials", "25000",
                    "--n-max", "12"],
    "blockade-2t": ["--seed", "7", "--threads", "2", "blockade", "--trials", "25000",
                    "--n-max", "12"],
    "blockade-slow-light": ["--seed", "7", "blockade", "--slow-light", "--trials", "25000",
                            "--n-max", "12"],
    "blockade-rb0": ["blockade", "--rb", "0", "--trials", "1000", "--n-max", "6"],
    "fig3": ["--seed", "606", "reproduce", "fig3"],
    "fig4": ["--seed", "606", "reproduce", "fig4"],
    "fig4-slow-light": ["--seed", "606", "reproduce", "fig4", "--slow-light"],
    "fig3-31-points": ["--seed", "606", "reproduce", "fig3", "--trials", "20000",
                       "--zeta-range", "0.004,0.4,31"],
    "figS5": ["reproduce", "figS5"],
    "figS3": ["reproduce", "figS3"],
    "figS3-efficiency-table": ["reproduce", "figS3", "--efficiency-table", "efficiency.csv"],
    "g2": ["--seed", "3", "g2", "clicks.csv", "--window", "0,300",
           "--noise-window", "500,1100"],
    "fit-peg": ["fit-peg", "fit_peg.csv"],
    "help": ["--help"],
    "reproduce-help": ["reproduce", "--help"],
    "fig3-n-max-2": ["reproduce", "fig3", "--n-max", "2", "--trials", "100"],
    "figS5-tiny-t_w": ["--config", "tiny_tw.cfg", "reproduce", "figS5"],
    "fig3-filter": ["--config", "filter.cfg", "reproduce", "fig3", *_GRID],
    "fig3-identity": ["--config", "identity.cfg", "reproduce", "fig3", *_GRID],
    "fig4-slow-light-n-max-40": ["reproduce", "fig4", "--slow-light", *_GRID],
    "figS5-t_w-underflow": ["--config", "underflow_tw.cfg", "reproduce", "figS5"],
}


def _env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def build_inputs(tree: Path, where: Path) -> None:
    for name, text in _INPUTS.items():
        (where / name).write_text(text)
    subprocess.run([sys.executable, "-c", _CLICKS], cwd=where, env=_env(tree),
                   check=True, timeout=600)


def run(tree: Path, args: list[str], inputs: Path, out: Path):
    """Exit code, masked stdout and stderr, and {file name: bytes} of one run."""
    out.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-m", "rydstats.cli", "--out", str(out), *args],
                          cwd=inputs, env=_env(tree), capture_output=True, timeout=600)

    def mask(data: bytes) -> bytes:
        return (data.replace(str(out).encode(), b"<OUT>")
                .replace(str(tree.resolve()).encode(), b"<TREE>"))

    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return proc.returncode, mask(proc.stdout), mask(proc.stderr), files


def largest_relative_change(old: bytes, new: bytes) -> str:
    """The largest |new - old| / |old| over the fields of two CSV tables
    (inf where old is 0), or why the tables cannot be compared field by
    field."""
    old_rows, new_rows = ([line.split(",") for line in data.decode().splitlines()]
                          for data in (old, new))
    if [len(row) for row in old_rows] != [len(row) for row in new_rows]:
        return "shapes differ"
    worst = 0.0
    for old_row, new_row in zip(old_rows, new_rows):
        for a, b in zip(old_row, new_row):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                return f"text differs: {a!r} -> {b!r}"
            worst = max(worst, abs(y - x) / abs(x) if x else math.inf)
    return f"largest relative change {worst:.3g}"


def differences(old, new) -> list[str]:
    (old_code, old_out, old_err, old_files), (new_code, new_out, new_err, new_files) = old, new
    found = []
    if old_code != new_code:
        found.append(f"exit {old_code} -> {new_code}")
    if old_files.keys() != new_files.keys():
        found.append(f"files {sorted(old_files)} -> {sorted(new_files)}")
    changed = [name for name in old_files.keys() & new_files.keys()
               if old_files[name] != new_files[name]]
    if changed:
        found.append("bytes of " + ", ".join(
            f"{name} ({largest_relative_change(old_files[name], new_files[name])})"
            if name.endswith(".csv") else name
            for name in sorted(changed)))
    if old_out != new_out:
        found.append("stdout")
    if old_err != new_err:
        found.append("stderr")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the tree to compare against")
    parser.add_argument("new", type=Path, help="the changed tree")
    args = parser.parse_args(argv)
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "rydstats" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/rydstats package")
    width = max(map(len, COMMANDS))
    status = 0
    with tempfile.TemporaryDirectory(prefix="compare_cli-") as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        build_inputs(trees["old"], inputs)
        for name, command in COMMANDS.items():
            old, new = (run(tree, command, inputs, Path(tmp) / side / name)
                        for side, tree in trees.items())
            found = differences(old, new)
            verdict = "differs: " + "; ".join(found) if found else "same"
            print(f"{name:<{width}}  exit {old[0]}  {verdict}", flush=True)
            status |= bool(found)
    return status


if __name__ == "__main__":
    sys.exit(main())
