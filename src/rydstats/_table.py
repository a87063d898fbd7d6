"""Numeric CSV tables: a header line, then comma-separated numbers, integers
as ``str`` and every other number as ``repr(float(v))``, which reads back
bit for bit.  The one writer and the one strict reader of such files, and
the UTF-8 opener that every text reader of the package uses.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError


@contextmanager
def open_text(path):
    """Open ``path`` for reading as UTF-8, skipping a leading byte-order
    mark (Excel's "CSV UTF-8" writes one); a byte that does not decode is
    a ValidationError naming the file, wherever the reading hits it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        ) from None


def _field(value) -> str:
    return str(int(value)) if isinstance(value, (int, np.integer)) else repr(float(value))


def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and one line per row.  The rows are formatted
    before the file is opened, so a row that fails leaves no file."""
    lines = [",".join(header)]
    lines += [",".join(_field(v) for v in row) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path, header: Sequence[str]) -> np.ndarray:
    """Read a table with exactly the columns ``header`` as a float array of
    shape (rows, columns), skipping blank lines.  A wrong header or field
    count, a field that is not a number, NaN and inf are errors naming
    ``path:line``."""
    header = list(header)
    rows = []
    with open_text(path) as fh:
        got = [name.strip() for name in fh.readline().split(",")]
        if got != header:
            raise ValidationError(
                f"{path}:1: expected header {','.join(header)!r}, got {','.join(got)!r}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValidationError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}"
                )
            try:
                row = [float(part) for part in parts]
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: malformed row ({exc})") from None
            if not np.all(np.isfinite(row)):
                raise ValidationError(f"{path}:{lineno}: non-finite value in {line!r}")
            rows.append(row)
    return np.array(rows, dtype=float).reshape(len(rows), len(header))
