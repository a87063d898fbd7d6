"""Compare the CLI of two source trees, case by case.

    python tools/compare_cli.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository.  The cases are those of
``tests/golden/cases.py`` in the checkout that holds this script, with its
checked-in inputs, so any tree with a ``src/rydstats`` package can be
compared.  For each tree one child process runs every case in process
through ``cases.run_case``, with ``PYTHONPATH=<tree>/src`` and
``PYTHONDONTWRITEBYTECODE=1`` so that neither tree gains files.  The
child's stdout is a pipe, so argparse wraps its help text at 80 columns.

For each case the script compares the exit code, the names and bytes of
the files written to ``--out``, and stdout and stderr with the output
directory and the tree's path masked.  For a CSV file whose bytes differ
it also prints the largest relative change of a field, each field read
with ``float``.  A case whose exit is not an integer raised an uncaught
exception, and is reported as such.  It prints one line per case and
exits 1 if any case differs or raised, 0 if none does.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CASES_SCRIPT = Path(__file__).resolve().parents[1] / "tests" / "golden" / "cases.py"


def replay(tree: Path, root: Path) -> dict:
    """{case: (exit code, stdout, stderr, {file name: bytes})} of every case
    run on ``tree``, each with ``--out root/<case>``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(CASES_SCRIPT), str(root)], env=env,
                          capture_output=True, timeout=600)
    if proc.returncode:
        raise SystemExit(f"the cases did not run on {tree}:\n{proc.stderr.decode()}")
    replayed = {}
    for case, record in json.loads(proc.stdout).items():
        out = root / case
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
        replayed[case] = (record["exit"], *(record[stream].replace(str(tree), "<TREE>")
                                            for stream in ("stdout", "stderr")), files)
    return replayed


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
    with tempfile.TemporaryDirectory(prefix="compare_cli-") as tmp:
        old, new = (replay(tree, Path(tmp) / side) for side, tree in trees.items())
    width = max(map(len, old))
    status = 0
    for case in old:
        found = differences(old[case], new[case])
        raised = [f"{side} raised {record[case][0]}"
                  for side, record in (("old", old), ("new", new))
                  if not isinstance(record[case][0], int)]
        verdict = "; ".join(raised + (["differs: " + "; ".join(found)] if found else [])) or "same"
        print(f"{case:<{width}}  exit {old[case][0]}  {verdict}")
        status |= bool(found or raised)
    return status


if __name__ == "__main__":
    sys.exit(main())
