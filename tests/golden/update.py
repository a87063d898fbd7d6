"""Regenerate the golden outputs that ``tests/test_golden.py`` checks.

    PYTHONPATH=src python tests/golden/update.py

Runs every case of ``test_golden.CASES`` and rewrites ``console.json`` and
one directory of output files per case.  The inputs under ``inputs/`` are
not touched.  The golden files are test data: a change that regenerates
them says which files changed and why.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import CASES, GOLDEN, run_case  # noqa: E402


def main() -> None:
    records = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        for case, argv in CASES.items():
            records[case], files = run_case(argv, Path(tmp) / case)
            saved = GOLDEN / case
            shutil.rmtree(saved, ignore_errors=True)
            if files:
                saved.mkdir()
                for name, text in files.items():
                    (saved / name).write_text(text)
    (GOLDEN / "console.json").write_text(json.dumps(records, indent=2) + "\n")
    print(f"wrote {len(records)} cases under {GOLDEN}")


if __name__ == "__main__":
    main()
