"""Numeric CSV tables: a header line, then comma-separated numbers, integers
as ``str`` and every other number as ``repr(float(v))``, which reads back
bit for bit.  The one writer and the one strict reader of such files, and
the UTF-8 opener and line check that every text reader of the package uses.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError


def open_text(path):
    """Open ``path`` for reading as UTF-8, skipping a leading byte-order
    mark (Excel's "CSV UTF-8" writes one).  A byte that does not decode
    comes through as a lone surrogate, for ``check_line`` to reject at its
    line once the lines before it have been read."""
    return open(path, encoding="utf-8-sig", errors="surrogateescape")


def check_line(path, lineno: int, line: str) -> str:
    """``line``, line ``lineno`` of a file from ``open_text``; a byte in it
    that is not UTF-8 is a ValidationError naming ``path:lineno``."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:  # only escaped bytes, U+DC80..U+DCFF
            byte = ord(line[exc.start]) - 0xDC00
            raise ValidationError(f"{path}:{lineno}: not UTF-8 text (byte 0x{byte:02x})") from None
    return line


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
        got = [name.strip() for name in check_line(path, 1, fh.readline()).split(",")]
        if got != header:
            raise ValidationError(
                f"{path}:1: expected header {','.join(header)!r}, got {','.join(got)!r}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = check_line(path, lineno, line).strip()
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
