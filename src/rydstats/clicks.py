"""Time-tagged detector clicks: ingestion, counting and correlation estimates.

File format
-----------
Click streams are CSV with a mandatory trial-count comment so that trials
without any click still enter the statistics::

    # trials=100000
    trial_id,detector,time_ns
    0,D2,152
    0,D3,87
    3,D2,240

Times are integer nanoseconds relative to the trial start.  Analysis
windows are half-open integer ranges [start, end).  Detection is not
photon-number resolving: any number of clicks on one detector inside one
trial's signal window counts as a single click, and a coincidence is at
least one click on each of the two detector roles in the same trial.

Noise is estimated from a window where no signal is present (but the same
background applies), then rescaled to the signal-window duration.
"""

from __future__ import annotations

import io
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._table import check_line
from .errors import NumericalError, ValidationError, _check_count
from .fock import FockDistribution

DETECTORS = ("D1", "D2", "D3")
_DETECTOR_CODE = {name: i for i, name in enumerate(DETECTORS)}
#: Default detectors of analysis roles 1 and 2.
ROLE_DETECTORS = (("D2",), ("D3",))
#: Default and least number of bootstrap resamples.
RESAMPLES = 1000
MIN_RESAMPLES = 100

_TRIALS_RE = re.compile(r"#\s*trials\s*=\s*(\d+)\s*$")
_HEADER = "trial_id,detector,time_ns"
_INT64_MAX = int(np.iinfo(np.int64).max)
# The body is read in blocks of _BLOCK bytes, each cut after a line end.
# The byte-level parser copies a block into a buffer behind _PAD spare
# bytes and ahead of 8 more, so that every 8-byte window that ends in a
# field or starts at a separator lies inside the buffer.  Fields longer
# than _MAX_DIGITS, which may pass the int64 bound, go through the
# per-line grammar and its check.
_BLOCK = 1 << 18
_PAD = 8
_MAX_DIGITS = 18
_ZERO, _NINE, _NEWLINE = np.uint8(ord("0")), np.uint8(ord("9")), np.uint8(ord("\n"))
#: ",D?," read as a little-endian word, the detector digit masked out.
_COMMA_D_COMMA = np.uint64(int.from_bytes(b",D\0,", "little"))
#: 0x01 in each of the last w bytes of a little-endian 8-byte word (w = 0..8).
_KEEP_BYTES = np.array([int.from_bytes(bytes(8 - w) + bytes([1]) * w, "little")
                        for w in range(9)], dtype=np.uint64)
#: Low nibbles of the last min(w, 8) bytes of a little-endian 8-byte word.
_DIGIT_MASKS = _KEEP_BYTES[np.minimum(np.arange(_MAX_DIGITS + 1), 8)] * np.uint64(0x0F)
# The writer formats blocks of _WRITE_ROWS records in numpy, each value as
# 8-digit words of ASCII, and keeps the bytes from its first digit on;
# count_trials reduces a stream in blocks of as many records.
_WRITE_ROWS = 1 << 16
#: 10**1 .. 10**18: a value's digit count is 1 + the number of these it reaches.
_POW10 = np.array([10**k for k in range(1, 19)], dtype=np.uint64)


def _check_window(name: str, window: tuple[int, int]) -> tuple[int, int]:
    start, end = window[0], window[1]
    _check_count(f"{name} window start", start, 0)
    _check_count(f"{name} window end", end, 0)
    if end <= start:
        raise ValidationError(f"{name} window must satisfy 0 <= start < end, got {window}")
    return int(start), int(end)


def _check_detectors(names: tuple[str, ...]) -> None:
    for name in names:
        if name not in _DETECTOR_CODE:
            raise ValidationError(f"unknown detector {name!r}; expected one of {DETECTORS}")


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


@dataclass(frozen=True)
class WindowSpec:
    """Signal windows for the two detector roles plus a noise window.

    The noise window must not overlap either signal window; it samples the
    stationary background (dark counts plus stray light) after the pulse.
    """

    signal_1: tuple[int, int] = (0, 300)
    signal_2: tuple[int, int] | None = None
    noise: tuple[int, int] = (500, 1100)

    def __post_init__(self):
        sig1 = _check_window("signal_1", self.signal_1)
        sig2 = sig1 if self.signal_2 is None else _check_window("signal_2", self.signal_2)
        noise = _check_window("noise", self.noise)
        for name, sig in (("signal_1", sig1), ("signal_2", sig2)):
            if _overlaps(sig, noise):
                raise ValidationError(
                    f"noise window {noise} overlaps {name} window {sig}"
                )
        object.__setattr__(self, "signal_1", sig1)
        object.__setattr__(self, "signal_2", sig2)
        object.__setattr__(self, "noise", noise)

    @property
    def signal_lengths(self) -> tuple[int, int]:
        return (self.signal_1[1] - self.signal_1[0], self.signal_2[1] - self.signal_2[0])

    @property
    def noise_length(self) -> int:
        return self.noise[1] - self.noise[0]

    def as_dict(self) -> dict:
        return {
            "signal_1": list(self.signal_1),
            "signal_2": list(self.signal_2),
            "noise": list(self.noise),
        }


@dataclass(frozen=True)
class TrialCounts:
    """Aggregates entering the correlation estimators.

    ``n1``/``n2`` are mean signal clicks per trial on each role (binary
    per trial), ``n12`` the total coincidence count, ``nn1``/``nn2`` the
    mean noise clicks per trial rescaled to the signal-window duration.
    """

    n_trials: int
    n1: float
    n2: float
    n12: int
    nn1: float
    nn2: float


@dataclass(frozen=True, eq=False)
class TrialData:
    """The distinct trial patterns of one click stream.

    Column j of ``patterns`` (shape 4 x k) is one pattern: the signal click
    on role 1 and on role 2 (0 or 1), then the noise clicks on role 1 and
    on role 2.  ``weights[j]`` is the number of trials that show it.
    ``count_trials`` puts the columns in ``np.unique(axis=1)`` order, so
    the zero pattern, of the trials without a click in any window, comes
    first when there are such trials.  The pattern fully describes a
    trial, so this table is all that the point estimate (``counts()``)
    and the bootstrap need.  Construction checks both: whole entries
    >= 0, signal entries 0 or 1, one weight per pattern, and weights that
    sum to ``n_trials``.
    """

    n_trials: int
    patterns: np.ndarray
    weights: np.ndarray
    windows: WindowSpec

    def __post_init__(self):
        _check_count("n_trials", self.n_trials, 1)
        patterns = np.asarray(self.patterns)
        weights = np.asarray(self.weights)
        if patterns.ndim != 2 or patterns.shape[0] != 4:
            raise ValidationError(f"patterns must have shape (4, k), got {patterns.shape}")
        _check_whole("patterns", patterns)
        if np.any(patterns[:2] > 1):
            raise ValidationError("patterns: the signal rows (the first two) must hold only 0 or 1")
        if weights.shape != patterns.shape[1:]:
            raise ValidationError(
                f"weights must have shape {patterns.shape[1:]}, one per pattern, got {weights.shape}")
        _check_whole("weights", weights)
        if weights.sum() != self.n_trials:
            raise ValidationError(f"weights sum to {weights.sum()}, not n_trials={self.n_trials}")
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "weights", weights)

    def counts(self) -> TrialCounts:
        n1, n2, n12, nn1, nn2 = _sums(self, self.weights)
        return TrialCounts(self.n_trials, float(n1), float(n2), int(n12), float(nn1), float(nn2))


def _check_whole(name: str, values: np.ndarray) -> None:
    # Written so that NaN and inf fail the check.
    whole = values.dtype.kind in "biu" or (
        values.dtype.kind == "f" and np.all(np.isfinite(values) & (values == np.floor(values))))
    if not whole or np.any(values < 0):
        raise ValidationError(f"{name} must hold whole numbers >= 0")


def _sums(data: TrialData, w):
    """n1, n2, n12, nn1 and nn2 (see ``TrialCounts``) of the trials that
    show pattern j ``w[..., j]`` times; ``w`` is one weight vector or a
    stack of them."""
    sig1, sig2, noise1, noise2 = data.patterns.astype(float)
    n = data.n_trials
    nn1, nn2 = _noise_means((w @ noise1, w @ noise2), n, data.windows)
    return w @ sig1 / n, w @ sig2 / n, w @ (sig1 * sig2), nn1, nn2


def _noise_means(totals, n_trials, windows: WindowSpec):
    """Noise clicks per trial on each role, rescaled from the noise window
    to that role's signal window (scalars or arrays)."""
    return [total / n_trials * (length / windows.noise_length)
            for total, length in zip(totals, windows.signal_lengths)]


def _g2_corrected(n_trials, n1, n2, n12, nn1, nn2):
    """Noise-corrected g2 (scalars or arrays; needs n1 > nn1, n2 > nn2)::

        g2 = g2n - (1 - g2n) (a + b + a b),
        g2n = n12 / (N n1 n2),  a = nn1 / (n1 - nn1),  b = nn2 / (n2 - nn2)

    which removes signal-noise and noise-noise accidentals; zero noise
    gives exactly g2n.
    """
    g2n = n12 / (n_trials * n1 * n2)
    a = nn1 / (n1 - nn1)
    b = nn2 / (n2 - nn2)
    return g2n - (1.0 - g2n) * (a + b + a * b)


@dataclass(frozen=True, eq=False)
class ClickStream:
    """A batch of clicks as parallel arrays (empty trials carry no rows,
    hence the explicit ``n_trials``).

    It holds exactly what a click file can hold: building one with a trial
    count that is not an integer in ``1..2**63-1``, a trial id outside
    ``0..n_trials-1``, a detector code outside ``0..2`` or a negative time
    is a ``ValidationError``.
    """

    n_trials: int
    trial_ids: np.ndarray
    detector_codes: np.ndarray
    times_ns: np.ndarray

    def __post_init__(self):
        n = self.n_trials
        if not isinstance(n, (int, np.integer)) or n > _INT64_MAX:
            raise ValidationError(f"trial count {n!r} is not an integer in 1..{_INT64_MAX}")
        if n < 1:
            raise ValidationError("click stream reports zero trials")
        for name, values, high in (("trial id", self.trial_ids, n),
                                   ("detector code", self.detector_codes, len(DETECTORS))):
            if values.size and not 0 <= values.min() <= values.max() < high:
                bad = values.min() if values.min() < 0 else values.max()
                raise ValidationError(f"{name} {bad} outside 0..{high - 1}")
        if self.times_ns.size and self.times_ns.min() < 0:
            raise ValidationError(f"negative time {self.times_ns.min()} ns")

    @property
    def n_records(self) -> int:
        return self.trial_ids.size

    def write_csv(self, path) -> None:
        """Write the stream as a click CSV (format in the module docstring)
        that ``read_csv`` reads back to the same arrays.  The records are
        formatted in numpy, ``_WRITE_ROWS`` at a time, each block with one
        ``write()``.
        """
        with open(path, "wb") as fh:
            fh.write(f"# trials={self.n_trials}\n{_HEADER}\n".encode())
            for start in range(0, self.n_records, _WRITE_ROWS):
                rows = slice(start, start + _WRITE_ROWS)
                fh.write(_format_block(self.trial_ids[rows], self.detector_codes[rows],
                                       self.times_ns[rows]))

    @staticmethod
    def read_csv(path) -> "ClickStream":
        """Read a click CSV (format in the module docstring): the blocks of
        ``_blocks``, concatenated."""
        lines = _ClickLines(path)
        with open(path, "rb") as fh:
            blocks = list(_blocks(lines, fh))
        return ClickStream(lines.n_trials, *(np.concatenate(column) for column in zip(*blocks)))


@dataclass(eq=False)
class _ClickLines:
    """The click-CSV grammar, fed one line at a time: the one full
    statement of the format and the only source of line-numbered errors."""

    path: object
    lineno: int = 0
    n_trials: int | None = None
    header_seen: bool = False
    any_line: bool = False
    ids: list = field(default_factory=list)
    codes: list = field(default_factory=list)
    times: list = field(default_factory=list)

    def _error(self, message: str) -> ValidationError:
        return ValidationError(f"{self.path}:{self.lineno}: {message}")

    def feed(self, raw: str) -> None:
        self.lineno += 1
        line = check_line(self.path, self.lineno, raw).strip()
        if not line:
            return
        self.any_line = True
        if line.startswith("#"):
            m = _TRIALS_RE.match(line)
            if m:
                if self.n_trials is not None:
                    raise self._error("duplicate '# trials=' header")
                self.n_trials = int(m.group(1))
                if self.n_trials > _INT64_MAX:
                    raise self._error(f"trial count above {_INT64_MAX}")
                if self.n_trials == 0:
                    raise self._error("trial count must be at least 1")
            return
        if not self.header_seen:
            if line != _HEADER:
                raise self._error(f"expected header '{_HEADER}', got {line!r}")
            self.header_seen = True
            return
        parts = line.split(",")
        if len(parts) != 3:
            raise self._error(f"expected 3 fields, got {len(parts)}")
        try:
            trial = int(parts[0])
            code = _DETECTOR_CODE[parts[1]]
            t = int(parts[2])
        except (ValueError, KeyError) as exc:
            raise self._error(f"malformed record ({exc})") from exc
        if trial < 0 or t < 0:
            raise self._error("negative trial id or time")
        if trial > _INT64_MAX or t > _INT64_MAX:
            raise self._error(f"trial id or time above {_INT64_MAX}")
        self.ids.append(trial)
        self.codes.append(code)
        self.times.append(t)

    def feed_bytes(self, data: bytes) -> None:
        """Feed the lines of ``data``, bytes of the file that end at a line
        end or at the end of the file, decoded as ``_table.open_text``
        decodes: UTF-8 with each bad byte escaped for ``check_line``, and
        universal newlines, so that a lone CR ends a line too."""
        for raw in io.StringIO(data.decode("utf-8", "surrogateescape"), newline=None):
            self.feed(raw)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The records fed since the last call, as arrays."""
        columns = (np.asarray(self.ids, dtype=np.int64), np.asarray(self.codes, dtype=np.int8),
                   np.asarray(self.times, dtype=np.int64))
        self.ids, self.codes, self.times = [], [], []
        return columns

    def check(self, top_id: int) -> None:
        """Apply the whole-file checks, ``top_id`` being the largest trial
        id read (-1 for none)."""
        if not self.any_line:
            raise ValidationError(f"{self.path}: empty click file")
        if self.n_trials is None:
            raise ValidationError(f"{self.path}: missing mandatory '# trials=N' comment")
        if not self.header_seen:
            raise ValidationError(f"{self.path}: missing column header '{_HEADER}'")
        if top_id >= self.n_trials:
            raise ValidationError(f"{self.path}: trial id {top_id} outside 0..{self.n_trials - 1}")


def _blocks(lines: _ClickLines, fh):
    """Feed the preamble of the click file ``fh`` (binary, at its start)
    to ``lines``, yield the body's records as (trial ids, detector codes,
    times) blocks in file order, then apply the whole-file checks.

    A block is the next ``_BLOCK`` bytes up to their last line end (a
    longer line extends it).  A block of plain records,
    ``digits,D[123],digits`` with at most 18 digits per number and LF or
    CRLF line ends, is parsed from its bytes in numpy.  Any other block
    (comments, blank lines, spaces, ``+5`` or ``1_0``, a lone CR, wider
    numbers, non-ASCII bytes, bad records) goes through ``lines`` from its
    own first line: the same records, or the same error at the same line.
    """
    head = fh.read(3)  # read, not peeked: a pipe cannot seek back
    if head == b"\xef\xbb\xbf":  # a byte-order mark is skipped, as by utf-8-sig
        head = b""
    while not lines.header_seen and (raw := head + fh.readline()):
        head = b""
        lines.feed_bytes(raw)
    buf = np.zeros(_PAD + _BLOCK + 16, np.uint8)
    # the first block: the records after a header line that ends in a lone CR
    records, data, more, top = lines.columns(), bytearray(), True, -1
    while True:
        if records[0].size:
            top = max(top, int(records[0].max()))
        yield records
        if not more:
            break
        # data is part of one line: a long one reads on half a block at a time
        more = fh.read(max(_BLOCK - len(data), _BLOCK // 2))
        data += more
        end = data.rfind(b"\n") + 1 if more else len(data)
        block = data[:end]
        del data[:end]
        records = _plain_block(block, buf)
        if records is None:
            lines.feed_bytes(block)
            records = lines.columns()
        else:
            lines.lineno += records[0].size
    lines.check(top)  # the trial count may come last


def _plain_block(block: bytearray, buf):
    """Parse ``block``, whole lines of the body, in ``buf``: the three
    columns, or None unless every line is a plain record."""
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")  # a lone \r is below '0': None
    if not block.endswith(b"\n"):
        block = block + b"\n"  # a new object: the caller's block stays as read
    if _PAD + len(block) + 8 > buf.size:  # no plain record is that long
        return None
    data, block = block, buf[_PAD:_PAD + len(block)]
    block[:] = np.frombuffer(data, np.uint8)
    # words[i] is the little-endian 8-byte window that starts at buf[i]
    words = np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))
    sep = np.flatnonzero(block < _ZERO)
    k = sep.size // 3
    if sep.size != 3 * k or np.count_nonzero(block > _NINE) != k:
        return None
    comma, newline = sep[0::3], sep[2::3]
    # The 4 bytes from each line's first separator must read ",D1," to
    # ",D3,"; its third separator must be a line end.  Then no byte but
    # the D lies above '9', and none but the separators below '0'.
    head = words[comma + _PAD] & np.uint64(0xFFFFFFFF)
    code = ((head >> np.uint64(16)) & np.uint64(0xFF)) - np.uint64(ord("1"))
    if not ((head & np.uint64(0xFF00FFFF) == _COMMA_D_COMMA).all() and code.max() < len(DETECTORS)
            and (block[newline] == _NEWLINE).all()):
        return None
    line_start = np.empty(k, np.int64)
    line_start[0] = 0
    line_start[1:] = newline[:-1] + 1
    id_width = comma - line_start
    time_width = newline - comma - 4
    if (min(id_width.min(), time_width.min()) < 1
            or max(id_width.max(), time_width.max()) > _MAX_DIGITS):
        return None
    return (_decimal(words, comma + _PAD, id_width), code.astype(np.int8),
            _decimal(words, newline + _PAD, time_width))


def _decimal(words, ends, widths):
    """The values of the decimal fields of ``widths`` (1-18) ASCII digits
    that end before buffer offsets ``ends``: the last 8 digits, then on the
    rows that have them the 8 before those, and the 2 before those."""
    value = _eight_digits(words[ends - 8], widths)
    for shift in (8, 16):
        rows = np.flatnonzero(widths > shift)
        if not rows.size:
            break
        part = _eight_digits(words[ends[rows] - 8 - shift], widths[rows] - shift)
        value[rows] += part * np.uint64(10**shift)
    return value.view(np.int64)


def _eight_digits(window, widths):
    """SWAR: the value of the last ``widths`` digits (at most 8) of each
    little-endian 8-byte ``window``, the bytes before them read as 0."""
    x = window & _DIGIT_MASKS[widths]
    x = (x * np.uint64(10) + (x >> np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x * np.uint64(100) + (x >> np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    return (x * np.uint64(10000) + (x >> np.uint64(32))) & np.uint64(0xFFFFFFFF)


def _format_block(ids, codes, times) -> np.ndarray:
    """The records ``id,D<code + 1>,time`` of one block as ASCII bytes,
    each line ending in LF (the stream checked ids, codes and times)."""
    id_digits, id_keep = _ascii_field(np.asarray(ids, np.int64).view(np.uint64))
    time_digits, time_keep = _ascii_field(np.asarray(times, np.int64).view(np.uint64))
    a, b = id_digits.shape[1], time_digits.shape[1]
    line = np.empty((ids.size, a + 4 + b + 1), np.uint8)
    keep = np.ones(line.shape, bool)
    line[:, :a], keep[:, :a] = id_digits, id_keep
    line[:, a:a + 4] = np.frombuffer(b",D?,", np.uint8)
    line[:, a + 2] = codes + ord("1")
    line[:, a + 4:-1], keep[:, a + 4:-1] = time_digits, time_keep
    line[:, -1] = _NEWLINE
    return line[keep]


def _ascii_field(values):
    """The decimal digits of ``values`` (uint64, below 10**19) in as many
    8-byte words per value as the widest needs, leading zeros included:
    the (n, 8k) digit bytes, and the (n, 8k) mask of the bytes from each
    value's first digit on."""
    widths = np.searchsorted(_POW10, values, side="right") + 1
    k = -(-int(widths.max()) // 8)
    words = np.empty((values.size, k), np.uint64)
    keep = np.empty((values.size, k), np.uint64)
    for j in reversed(range(k)):  # the last 8 digits first
        if j:
            low = values % np.uint64(10**8)
            values = values // np.uint64(10**8)
        else:
            low = values
        words[:, j] = _eight_ascii(low)
        keep[:, j] = _KEEP_BYTES[np.clip(widths - 8 * (k - 1 - j), 0, 8)]
    return words.view(np.uint8), keep.view(bool)


def _eight_ascii(values):
    """SWAR, the inverse of ``_eight_digits``: each value below 10**8 as 8
    ASCII digits (leading zeros included) in a little-endian word.  Each
    step splits every lane in two by a multiply-shift division: 4 digits
    per 32-bit lane, 2 per 16-bit lane, then 1 per byte."""
    high = (values * np.uint64(3518437209)) >> np.uint64(45)  # // 10**4
    x = high | (values - high * np.uint64(10**4)) << np.uint64(32)
    high = ((x * np.uint64(5243)) >> np.uint64(19)) & np.uint64(0x0000007F0000007F)  # // 100
    x = high | (x - high * np.uint64(100)) << np.uint64(16)
    high = ((x * np.uint64(103)) >> np.uint64(10)) & np.uint64(0x000F000F000F000F)  # // 10
    return high | (x - high * np.uint64(10)) << np.uint64(8) | np.uint64(0x3030303030303030)


def count_trials(
    stream: ClickStream,
    windows: WindowSpec,
    detectors_1: tuple[str, ...] = ROLE_DETECTORS[0],
    detectors_2: tuple[str, ...] = ROLE_DETECTORS[1],
) -> TrialData:
    """Reduce a click stream to its table of distinct trial patterns
    (see ``TrialData``).

    ``detectors_1``/``detectors_2`` map physical detectors onto the two
    analysis roles (e.g. the two arms of a beam-splitter measurement, or
    the write and read detectors for a cross-correlation).  The records go
    through ``_patterns`` ``_WRITE_ROWS`` at a time, so only the trials with
    a record in a role's signal or noise window are counted one by one: the
    rest are the zero pattern.  The stream checked itself when it was built.
    """
    in_role = _roles(detectors_1, detectors_2)
    columns = (stream.trial_ids, stream.detector_codes, stream.times_ns)
    for final in (True, False):
        blocks = ([c[i:i + _WRITE_ROWS] for c in columns]
                  for i in range(0, stream.n_records, _WRITE_ROWS))
        counted = _patterns(blocks, windows, in_role, final)
        if counted is not None:
            return _trial_data(stream.n_trials, *counted, windows)


def _read_trials(path, windows: WindowSpec, detectors_1: tuple[str, ...] = ROLE_DETECTORS[0],
                 detectors_2: tuple[str, ...] = ROLE_DETECTORS[1]) -> TrialData:
    """``count_trials(ClickStream.read_csv(path), ...)``, the same table
    or the same error, with each block of the file reduced as it is read.

    In a file sorted by trial id, the memory does not grow with the file.
    At the first id that decreases, the body is parsed a second time from
    its start, and the memory is that of one row per trial with a click.
    A file that cannot seek (a pipe) is read once, with that memory.
    """
    in_role = _roles(detectors_1, detectors_2)
    with open(path, "rb") as fh:
        for final in (True, False) if fh.seekable() else (False,):
            lines = _ClickLines(path)
            counted = _patterns(_blocks(lines, fh), windows, in_role, final)
            if counted is not None:
                return _trial_data(lines.n_trials, *counted, windows)
            fh.seek(0)


def _patterns(blocks, windows: WindowSpec, in_role, final: bool):
    """Reduce ``blocks`` of records, (trial ids, detector codes, times)
    each, to a ``Counter`` of trial patterns and the number of trials it
    counts, those with a record in a role's signal or noise window.

    Each block becomes one row per trial: its id and its pattern.  With
    ``final``, every row below the last id read is final: it goes into the
    table and is dropped.  That holds only while the ids never decrease;
    at the first that does, this returns None.  Without ``final`` the rows
    stay open to the end.
    """
    table, clicked = Counter(), 0
    # the open rows, then the blocks not yet merged into them
    parts, waiting = [(np.empty(0, np.int64), np.empty((4, 0), np.int64))], 0
    for block in blocks:
        ids, flags = _counted(*block, windows, in_role)
        if final and np.any(np.diff(np.concatenate((parts[0][0], ids))) < 0):
            return None
        parts.append((ids, flags))
        waiting += ids.size
        if final or waiting > parts[0][0].size:  # open rows merge as they double
            ids, rows = _by_trial(*map(np.hstack, zip(*parts)))
            done = max(ids.size - 1, 0) if final else 0
            _tally(table, rows[:, :done])
            clicked += done
            parts, waiting = [(ids[done:], rows[:, done:])], 0
    ids, rows = _by_trial(*map(np.hstack, zip(*parts)))
    _tally(table, rows)
    return table, clicked + ids.size


def _roles(detectors_1, detectors_2) -> np.ndarray:
    """The (2, 3) mask of the detector codes of roles 1 and 2."""
    _check_detectors((*detectors_1, *detectors_2))
    in_role = np.zeros((2, len(DETECTORS)), dtype=bool)
    for mask, names in zip(in_role, (detectors_1, detectors_2)):
        mask[[_DETECTOR_CODE[x] for x in names]] = True
    return in_role


def _counted(ids, codes, times, windows: WindowSpec, in_role):
    """The records inside a role's signal or noise window: their trial ids,
    and their (4, n) flags, in the signal window of role 1, of role 2,
    then in the noise window of role 1, of role 2."""
    in_noise = (times >= windows.noise[0]) & (times < windows.noise[1])
    signal, noise = [], []
    for mask, window in zip(in_role, (windows.signal_1, windows.signal_2)):
        role = mask.take(codes)
        signal.append(role & (times >= window[0]) & (times < window[1]))
        noise.append(role & in_noise)
    keep = np.flatnonzero(signal[0] | signal[1] | noise[0] | noise[1])
    return ids[keep], np.array([flags[keep] for flags in signal + noise])


def _by_trial(ids, counts):
    """Merge the columns of ``counts`` (4, n) by trial id: the distinct
    ids, ascending, and their (4, m) rows, the two signal rows or-ed and
    the two noise rows summed."""
    if np.any(ids[1:] < ids[:-1]):
        order = np.argsort(ids, kind="stable")
        ids, counts = ids[order], counts[:, order]
    first = np.empty(ids.size, dtype=bool)
    first[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    run = np.cumsum(first) - 1
    m = int(run[-1]) + 1 if ids.size else 0
    rows = np.array([np.bincount(run, row, m) for row in counts], dtype=np.int64)
    np.minimum(rows[:2], 1, out=rows[:2])
    return ids[first], rows


def _tally(table: Counter, rows) -> None:
    """Add the patterns of ``rows`` (4, m) to ``table``."""
    if rows.shape[1]:
        # one mixed-radix key per row, for np.unique to count
        dims = (2, 2, int(rows[2].max()) + 1, int(rows[3].max()) + 1)
        keys, counts = np.unique(np.ravel_multi_index(rows, dims), return_counts=True)
        patterns = np.transpose(np.unravel_index(keys, dims)).tolist()
        table.update(dict(zip(map(tuple, patterns), counts.tolist())))


def _trial_data(n_trials: int, table: Counter, clicked: int, windows: WindowSpec) -> TrialData:
    """The ``TrialData`` of ``table``, which counts the patterns of
    ``clicked`` trials, and of the zero pattern (0, 0, 0, 0) of the other
    trials when there are any.  Sorted, the patterns come in
    ``np.unique(axis=1)`` order: the zero pattern first."""
    if n_trials > clicked:
        table[(0, 0, 0, 0)] = n_trials - clicked
    patterns = sorted(table)
    return TrialData(n_trials, np.array(patterns, dtype=np.int64).T.copy(),
                     np.array([table[p] for p in patterns], dtype=np.int64), windows)


def g2_raw(c: TrialCounts) -> float:
    """Directly measured zero-delay correlation: n12 / (N n1 n2) with n1,
    n2 as per-trial means (equivalently n12 N / (N1 N2) with totals)."""
    if c.n1 <= 0.0 or c.n2 <= 0.0:
        raise ValidationError("g2 undefined: no signal clicks on one of the detectors")
    return c.n12 / (c.n_trials * c.n1 * c.n2)


def g2_noise_corrected(c: TrialCounts) -> float:
    """Correlation corrected for background uncorrelated with the signal
    (formula in ``_g2_corrected``).  With zero noise this returns exactly
    ``g2_raw``."""
    g2_raw(c)  # the no-signal check
    if c.n1 <= c.nn1 or c.n2 <= c.nn2:
        raise ValidationError(
            "noise correction impossible: estimated noise exceeds signal clicks"
        )
    return _g2_corrected(c.n_trials, c.n1, c.n2, c.n12, c.nn1, c.nn2)


def synthesize(
    dist: FockDistribution,
    n_trials: int,
    windows: WindowSpec,
    noise_rates_hz: tuple[float, float] = (0.0, 0.0),
    seed: int = 0,
) -> ClickStream:
    """Generate a synthetic click stream for closed-loop testing.

    Per trial: draw a photon number from ``dist``, split the photons
    50/50 between D2 (role 1) and D3 (role 2), as a beam splitter does,
    and place each photon click uniformly in that role's signal window.
    Uncorrelated background is added as Poisson clicks in both the signal
    and noise windows at the given per-detector rates (counts per second,
    at most 1e9: one click per nanosecond).  Deterministic per seed.
    The records are sorted on one int64 key, which bounds
    3 * n_trials * (the latest window end) by 2**63.
    """
    _check_count("n_trials", n_trials, 1)
    _check_count("seed", seed, 0)
    if not all(0.0 <= rate <= 1e9 for rate in noise_rates_hz):
        raise ValidationError(f"noise rates must lie in [0, 1e9] Hz, got {noise_rates_hz}")
    t_end = max(windows.signal_1[1], windows.signal_2[1], windows.noise[1])
    if 3 * int(n_trials) * t_end > 2**63:
        raise ValidationError(
            f"n_trials={n_trials} with a window end of {t_end} ns overflows the int64 "
            "sort key: 3 * n_trials * window end must be at most 2**63"
        )
    rng = np.random.default_rng(seed)

    ks = rng.choice(dist.probs.size, size=n_trials, p=dist.probs)
    counts_1 = rng.binomial(ks, 0.5)
    trial_index = np.arange(n_trials, dtype=np.int64)
    parts = []

    def emit(counts, detector, window):
        """Append one click per count, uniform in ``window``."""
        total = int(counts.sum())
        parts.append((np.repeat(trial_index, counts),
                      np.full(total, _DETECTOR_CODE[detector], dtype=np.int8),
                      rng.integers(window[0], window[1], size=total, dtype=np.int64)))

    roles = (("D2", windows.signal_1), ("D3", windows.signal_2))
    for counts, (name, window) in zip((counts_1, ks - counts_1), roles):
        emit(counts, name, window)
    for rate, (name, signal) in zip(noise_rates_hz, roles):
        for window in (signal, windows.noise):
            lam = rate * (window[1] - window[0]) * 1e-9
            if lam > 0.0:
                emit(rng.poisson(lam, size=n_trials), name, window)

    ids, codes, times = (np.concatenate(column) for column in zip(*parts))
    # times < t_end and codes < 3, so this key sorts like (id, time, code)
    order = np.argsort((ids * t_end + times) * 3 + codes, kind="stable")
    return ClickStream(n_trials, ids[order], codes[order], times[order])


def bootstrap_error(
    data: TrialData,
    resamples: int = RESAMPLES,
    seed: int = 0,
) -> float:
    """Nonparametric bootstrap standard error of the noise-corrected g2.

    Trials are resampled with replacement.  Because every trial is fully
    described by its pattern, the resample is drawn as a multinomial over
    the observed patterns, which is distributionally identical to
    resampling trial indices and orders of magnitude faster.
    Deterministic per seed.
    """
    _check_count("resamples", resamples, MIN_RESAMPLES)
    _check_count("seed", seed, 0)
    n = data.n_trials
    if n < 10:
        raise ValidationError(f"need at least 10 trials to bootstrap, got {n}")

    pvals = data.weights / data.weights.sum()
    pvals = pvals / pvals.sum()
    rng = np.random.default_rng(seed)
    try:
        draws = rng.multinomial(n, pvals, size=resamples)
    except (MemoryError, OverflowError, ValueError) as exc:
        raise ValidationError(f"cannot draw {resamples} bootstrap resamples ({exc})") from None
    sums = _sums(data, draws.astype(float))
    n1, n2, _, nn1, nn2 = sums

    valid = (n1 > 0) & (n2 > 0) & (n1 > nn1) & (n2 > nn2)
    if valid.sum() < 2:
        raise NumericalError("bootstrap degenerate: almost all resamples lack clicks")
    values = _g2_corrected(n, *(arr[valid] for arr in sums))
    return float(np.std(values, ddof=1))


def analysis_report(
    data: TrialData,
    resamples: int = RESAMPLES,
    seed: int = 0,
) -> dict:
    """Scalar summary of one analyzed click stream (the JSON payload of
    the ``g2`` CLI command)."""
    c = data.counts()
    return {
        "N": c.n_trials,
        "n1": c.n1,
        "n2": c.n2,
        "n12": c.n12,
        "nn1": c.nn1,
        "nn2": c.nn2,
        "g2_raw": g2_raw(c),
        "g2_corrected": g2_noise_corrected(c),
        "error": bootstrap_error(data, resamples=resamples, seed=seed),
        "windows": data.windows.as_dict(),
    }
