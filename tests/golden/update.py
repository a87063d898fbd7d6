"""Regenerate the golden outputs that ``tests/test_golden.py`` checks.

    PYTHONPATH=src python tests/golden/update.py

Runs every case of ``cases.CASES`` outside ``COMPARE_ONLY`` and rewrites
``console.json`` and one directory of output files per case.  The inputs
under ``inputs/`` are not touched.  The golden files are test data: a
change that regenerates them says which files changed and why.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from cases import CASES, GOLDEN, STORED, run_case, stored_files


def main() -> None:
    records = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        for case in STORED:
            out = Path(tmp) / case
            records[case] = run_case(CASES[case], out)
            files = stored_files(out)
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
