import random
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydstats import (
    ClickStream,
    NumericalError,
    TrialCounts,
    TrialData,
    ValidationError,
    WindowSpec,
    analysis_report,
    bootstrap_error,
    coherent,
    conditional_read_state,
    count_trials,
    fock_state,
    g2_noise_corrected,
    g2_raw,
    synthesize,
)
from rydstats import clicks
from rydstats._table import open_text
from rydstats.clicks import _BLOCK, _INT64_MAX, _WRITE_ROWS, DETECTORS, _ClickLines
from rydstats.source import SourceModel

WINDOWS = WindowSpec(signal_1=(0, 300), noise=(500, 1100))
GOLDEN_CLICKS = Path(__file__).parent / "golden" / "inputs" / "clicks.csv"


def write_stream(tmp_path, text, name="clicks.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestWindowSpec:
    def test_defaults_share_signal_window(self):
        assert WINDOWS.signal_2 == (0, 300)
        assert WINDOWS.signal_lengths == (300, 300)
        assert WINDOWS.noise_length == 600

    def test_rejects_inverted_window(self):
        with pytest.raises(ValidationError, match=r"0 <= start < end, got \(300, 100\)"):
            WindowSpec(signal_1=(300, 100))

    def test_rejects_overlapping_noise(self):
        with pytest.raises(ValidationError):
            WindowSpec(signal_1=(0, 300), noise=(200, 800))
        with pytest.raises(ValidationError):
            WindowSpec(signal_1=(0, 100), signal_2=(0, 600), noise=(500, 900))


class TestIngest:
    def test_counts_simple_stream(self, tmp_path):
        path = write_stream(
            tmp_path,
            "# trials=4\n"
            "trial_id,detector,time_ns\n"
            "0,D2,10\n"
            "0,D3,20\n"
            "1,D2,40\n"
            "2,D3,700\n"   # noise window click
            "3,D2,400\n",  # outside all windows
        )
        counts = count_trials(ClickStream.read_csv(path), WINDOWS).counts()
        assert counts == TrialCounts(
            n_trials=4, n1=0.5, n2=0.25, n12=1, nn1=0.0, nn2=0.125
        )

    def test_multiple_clicks_count_once(self, tmp_path):
        path = write_stream(
            tmp_path,
            "# trials=1\ntrial_id,detector,time_ns\n0,D2,10\n0,D2,20\n0,D2,30\n",
        )
        counts = count_trials(ClickStream.read_csv(path), WINDOWS).counts()
        assert counts.n1 == 1.0
        assert counts.n12 == 0

    def test_empty_stream_counts_zero(self, tmp_path):
        path = write_stream(tmp_path, "# trials=100\ntrial_id,detector,time_ns\n")
        counts = count_trials(ClickStream.read_csv(path), WINDOWS).counts()
        assert counts.n_trials == 100
        assert counts.n1 == 0.0 and counts.n2 == 0.0 and counts.n12 == 0

    def test_noise_rescaling(self, tmp_path):
        # 3 clicks in a 600 ns noise window over 1e4 trials -> 1.5e-4 per
        # trial after rescaling to the 300 ns signal window
        rows = "\n".join(f"{i},D2,600" for i in (5, 17, 99))
        path = write_stream(
            tmp_path, "# trials=10000\ntrial_id,detector,time_ns\n" + rows + "\n"
        )
        counts = count_trials(ClickStream.read_csv(path), WINDOWS).counts()
        assert counts.nn1 == pytest.approx(1.5e-4, rel=1e-12)

    def test_missing_trials_header(self, tmp_path):
        path = write_stream(tmp_path, "trial_id,detector,time_ns\n0,D2,10\n")
        with pytest.raises(ValidationError, match="trials"):
            count_trials(ClickStream.read_csv(path), WINDOWS)

    def test_empty_file(self, tmp_path):
        path = write_stream(tmp_path, "")
        with pytest.raises(ValidationError, match="empty"):
            count_trials(ClickStream.read_csv(path), WINDOWS)

    def test_parse_error_reports_line(self, tmp_path):
        path = write_stream(
            tmp_path, "# trials=5\ntrial_id,detector,time_ns\n0,D2,10\n1,D9,20\n"
        )
        with pytest.raises(ValidationError, match=":4"):
            count_trials(ClickStream.read_csv(path), WINDOWS)

    def test_trial_id_out_of_range(self, tmp_path):
        path = write_stream(
            tmp_path, "# trials=2\ntrial_id,detector,time_ns\n5,D2,10\n"
        )
        with pytest.raises(ValidationError, match="trial id"):
            count_trials(ClickStream.read_csv(path), WINDOWS)

    def test_trial_id_out_of_range_names_the_file(self, tmp_path):
        path = write_stream(tmp_path, "# trials=2\ntrial_id,detector,time_ns\n0,D2,1\n5,D2,10\n")
        message = f"{path}: trial id 5 outside 0..1"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ClickStream.read_csv(path)

    @pytest.mark.parametrize("row", ["99999999999999999999,D2,10", "0,D2,99999999999999999999"],
                             ids=["trial_id", "time_ns"])
    def test_beyond_int64_reports_line(self, tmp_path, row):
        path = write_stream(tmp_path, f"# trials=5\ntrial_id,detector,time_ns\n0,D2,1\n{row}\n")
        with pytest.raises(ValidationError, match=f"{path}:4: trial id or time above"):
            count_trials(ClickStream.read_csv(path), WINDOWS)

    def test_trial_count_beyond_int64_reports_line(self, tmp_path):
        path = write_stream(tmp_path, "\n# trials=99999999999999999999\ntrial_id,detector,time_ns\n")
        with pytest.raises(ValidationError, match=f"{path}:2: trial count above"):
            count_trials(ClickStream.read_csv(path), WINDOWS)

    def test_zero_trials_reports_line(self, tmp_path):
        path = write_stream(tmp_path, "# trials=0\ntrial_id,detector,time_ns\n")
        with pytest.raises(ValidationError, match=f"{path}:1: trial count must be at least 1"):
            ClickStream.read_csv(path)

    def test_stream_built_in_code_rejects_zero_trials(self):
        with pytest.raises(ValidationError, match="click stream reports zero trials"):
            ClickStream(0, np.zeros(0, np.int64), np.zeros(0, np.int8), np.zeros(0, np.int64))

    def test_unallocatable_trial_count_is_validation_error(self):
        # 2**62 bools cannot be allocated; numpy refuses before touching memory
        stream = ClickStream(2**62, np.zeros(0, np.int64), np.zeros(0, np.int8),
                             np.zeros(0, np.int64))
        with pytest.raises(ValidationError, match="per-trial arrays for 4611686018427387904"):
            count_trials(stream, WINDOWS)

    @pytest.mark.parametrize("trial_id, time_ns", [
        (5, 100),   # signal window: an index past the per-trial flags
        (7, 600),   # noise window: would lengthen the noise counts
        (-1, 100),  # negative: would read as an allocation failure
    ])
    def test_stream_built_in_code_rejects_trial_id_outside_range(self, trial_id, time_ns):
        with pytest.raises(ValidationError, match=f"trial id {trial_id} outside 0..2"):
            ClickStream(3, np.array([0, trial_id], np.int64), np.array([1, 2], np.int8),
                        np.array([100, time_ns], np.int64))

    @pytest.mark.parametrize("roles", [(("D2",), ("D3",)), (("D1", "D3"), ("D2",)),
                                       (("D1", "D2", "D3"), ("D2",))])
    def test_patterns_match_per_trial_reference(self, roles):
        rng = np.random.default_rng(8)
        size = 400
        stream = ClickStream(50, rng.integers(50, size=size),
                             rng.integers(3, size=size).astype(np.int8),
                             rng.integers(1100, size=size))
        data = count_trials(stream, WINDOWS, *roles)
        columns = []
        for trial in range(stream.n_trials):
            mine = stream.trial_ids == trial
            codes, times = stream.detector_codes[mine].tolist(), stream.times_ns[mine].tolist()
            role = [[DETECTORS[c] in names for c in codes] for names in roles]
            signal = [any(r and lo <= t < hi for r, t in zip(role[j], times))
                      for j, (lo, hi) in enumerate((WINDOWS.signal_1, WINDOWS.signal_2))]
            noise = [sum(r and 500 <= t < 1100 for r, t in zip(role[j], times)) for j in range(2)]
            columns.append([*signal, *noise])
        patterns, weights = np.unique(np.array(columns).T, axis=1, return_counts=True)
        np.testing.assert_array_equal(data.patterns, patterns)
        np.testing.assert_array_equal(data.weights, weights)

    @pytest.mark.parametrize("code", [-1, 3])
    def test_stream_built_in_code_rejects_unknown_detector_code(self, code):
        with pytest.raises(ValidationError, match=f"detector code {code} outside 0..2"):
            ClickStream(3, np.array([0, 1], np.int64), np.array([1, code], np.int8),
                        np.array([100, 200], np.int64))

    def test_non_utf8_file_is_validation_error(self, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_bytes(b"# trials=5\ntrial_id,detector,time_ns\n0,D2,1\n1,D\xff,2\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:4: not UTF-8 text (byte 0xff)")):
            ClickStream.read_csv(path)

    @pytest.mark.parametrize("data, message", [
        (b"# trials=5\ntrial_id,detector,time_ns\n0,D2,1\n1,D9,5\n\xff\n",
         ":4: malformed record"),
        (b"# trials=5\xff\ntrial_id,detector,time_ns\n0,D2,1\n", ":1: not UTF-8 text (byte 0xff)"),
        (b"# trials=5\ntrial_id,detector,time_ns\n0,D2,1\n# \xc3\n", ":4: not UTF-8 text (byte 0xc3)"),
    ], ids=["earlier-record", "preamble", "truncated-sequence"])
    def test_non_utf8_byte_is_reported_in_line_order(self, tmp_path, data, message):
        path = tmp_path / "clicks.csv"
        path.write_bytes(data)
        with pytest.raises(ValidationError, match="^" + re.escape(f"{path}{message}")):
            ClickStream.read_csv(path)

    def test_detector_mapping(self, tmp_path):
        path = write_stream(
            tmp_path,
            "# trials=2\ntrial_id,detector,time_ns\n0,D1,10\n0,D2,20\n1,D3,30\n",
        )
        data = count_trials(ClickStream.read_csv(path), WINDOWS,
                            detectors_1=("D1",), detectors_2=("D2", "D3"))
        counts = data.counts()
        assert counts.n1 == 0.5
        assert counts.n2 == 1.0
        assert counts.n12 == 1


def read_per_line(path):
    """Reference reader: every line through the per-line grammar."""
    lines = _ClickLines(path)
    with open_text(path) as fh:
        for raw in fh:
            lines.feed(raw)
    return lines.stream(*lines.columns())


def assert_reads_as_per_line(path):
    """``read_csv`` gives the reference reader's stream, or its error."""
    try:
        expected = read_per_line(path)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            ClickStream.read_csv(path)
        assert str(info.value) == str(exc), path.read_bytes()
    else:
        assert_same_stream(ClickStream.read_csv(path), expected)


def assert_same_stream(a, b):
    assert a.n_trials == b.n_trials
    for name in ("trial_ids", "detector_codes", "times_ns"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.flags.c_contiguous and y.flags.c_contiguous
        np.testing.assert_array_equal(x, y)


HEAD = "# trials=20\ntrial_id,detector,time_ns\n"


class TestReadCsv:
    """The bulk body parse must read every file as the per-line grammar does."""

    @pytest.mark.parametrize(
        "text,expected",
        [
            (HEAD + "0,D2,5\n# a comment\n1,D3,6\n", [(0, 1, 5), (1, 2, 6)]),
            ("trial_id,detector,time_ns\n0,D2,5\n# trials=20\n", [(0, 1, 5)]),
            (HEAD + "0,D2,5\n\n   \n\t\n2,D1,7\n", [(0, 1, 5), (2, 0, 7)]),
            (HEAD + "+5,D2,5\n 5 ,D3, 6 \n1_0,D1,1_0\n", [(5, 1, 5), (5, 2, 6), (10, 0, 10)]),
            (HEAD.replace("\n", "\r\n") + "0,D2,5\r\n1,D3,6\r\n", [(0, 1, 5), (1, 2, 6)]),
            (HEAD + "0,D2,5\n1,D3,6", [(0, 1, 5), (1, 2, 6)]),
            (HEAD, []),
            (HEAD + "\n\n", []),
            (HEAD + "0,D2,5\n3,D1,0\n", [(0, 1, 5), (3, 0, 0)]),
        ],
        ids=["comment-after-header", "trials-after-header", "blank-lines", "int-spellings",
             "crlf", "no-final-newline", "empty-body", "blank-body", "plain"],
    )
    def test_odd_valid_files(self, tmp_path, text, expected):
        path = write_stream(tmp_path, text)
        stream = ClickStream.read_csv(path)
        assert_same_stream(stream, read_per_line(path))
        rows = list(zip(stream.trial_ids.tolist(), stream.detector_codes.tolist(),
                        stream.times_ns.tolist()))
        assert rows == expected

    @pytest.mark.parametrize(
        "body,line,message",
        [
            ("0,D2,5\n1,D9,6\n", 4, "malformed record"),
            ("0,D2,5\n1,D22,6\n", 4, "malformed record"),
            ("0,D2,5\n\n1,D3,6,7\n", 5, "expected 3 fields"),
            ("0,D2,5\n1,D3,-6\n", 4, "negative"),
            ("0,D2,5\n# trials=4\n", 4, "duplicate"),
            ("0,D2\0,5\n", 3, "malformed record"),
            ("0, D2,5\n", 3, "malformed record"),
        ],
        ids=["D9", "D22", "four-fields", "negative-time", "duplicate-trials", "nul", "space"],
    )
    def test_malformed_body_reports_line(self, tmp_path, body, line, message):
        path = write_stream(tmp_path, HEAD + body)
        with pytest.raises(ValidationError, match=f"{path}:{line}: {message}"):
            ClickStream.read_csv(path)

    @pytest.mark.parametrize("body", ["0,D2,5\n1,D3,6\n", "0,D2,5\n# note\n1,D3,6\n"],
                             ids=["bulk", "per-line"])
    def test_byte_order_mark_is_skipped(self, tmp_path, body):
        # Excel's "CSV UTF-8" starts the file with one; both body parsers
        # start after it
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (HEAD + body).encode())
        assert_same_stream(ClickStream.read_csv(path),
                           ClickStream.read_csv(write_stream(tmp_path, HEAD + body)))

    def test_fourth_detector_in_a_plain_body_reports_line(self, tmp_path):
        # D4 is one code past D3: the bulk parse must refuse it as the
        # per-line grammar does, at its line, not leave it to ClickStream
        path = write_stream(tmp_path, "# trials=5\ntrial_id,detector,time_ns\n"
                                      "0,D2,5\n1,D4,7\n2,D3,9\n")
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(str(path))}:4: malformed record \\('D4'\\)$"):
            ClickStream.read_csv(path)
        assert_reads_as_per_line(path)

    def test_line_longer_than_a_block(self, tmp_path):
        # no line end in the body's first block: the per-line grammar reads it
        path = write_stream(tmp_path, HEAD + "# " + "x" * 300_000 + "\n0,D2,5\n")
        assert path.stat().st_size - len(HEAD) > _BLOCK
        assert_reads_as_per_line(path)
        stream = ClickStream.read_csv(path)
        assert (stream.trial_ids.tolist(), stream.detector_codes.tolist(),
                stream.times_ns.tolist()) == ([0], [1], [5])

    def test_empty_body_warns_nothing(self, tmp_path, capfd):
        path = write_stream(tmp_path, HEAD)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stream = ClickStream.read_csv(path)
        assert stream.n_records == 0
        assert not caught
        assert capfd.readouterr().err == ""

    @staticmethod
    def plain_body(rows, seed=3):
        """``rows`` plain records with trial ids below 20, for HEAD."""
        rng = np.random.default_rng(seed)
        columns = (rng.integers(high, size=rows).tolist() for high in (20, 3, 10**6))
        return "".join(f"{i},D{c + 1},{t}\n" for i, c, t in zip(*columns))

    def test_plain_body_skips_per_line_grammar(self, tmp_path, monkeypatch):
        stream = synthesize(coherent(0.4, 15), 2000, WINDOWS, noise_rates_hz=(1e4, 1e4), seed=3)
        stream.write_csv(tmp_path / "written.csv")
        text = (tmp_path / "written.csv").read_text()
        body = self.plain_body(40_000)
        assert len(body) > _BLOCK
        variants = {
            "written": text.encode(),
            "crlf": text.replace("\n", "\r\n").encode(),
            "bom": b"\xef\xbb\xbf" + text.encode(),
            "no-final-newline": text[:-1].encode(),
            "multi-block": (HEAD + body).encode(),
        }
        fed = []
        original = _ClickLines.feed
        monkeypatch.setattr(_ClickLines, "feed", lambda self, raw: fed.append(raw) or original(self, raw))
        for name, data in variants.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(data)
            expected = stream if name != "multi-block" else read_per_line(path)
            fed.clear()
            assert_same_stream(ClickStream.read_csv(path), expected)
            assert len(fed) == 2, name  # the preamble only

    def test_random_odd_files_match_per_line(self, tmp_path):
        rng = random.Random(5)
        # 8, 9, 16, 17, 18 and 19 digits: one, two and three 8-digit
        # windows, then the per-line grammar and its int64 check
        wide = ["12345678", "123456789", "9876543210123456", "12345678901234567",
                "999999999999999999", "9223372036854775807", "9223372036854775808",
                "0000000000000000001", "000000000000000019", "00000007", "007"]
        fields = ["0", "3", "+2", " 4", "1_0", "-1", "", "x", "99999999999999999999", "D2", "D22",
                  *wide]
        odd = ["", "  ", "# note", "# trials=4", "0,D2", "1,D3,4,5", "2,d1,3", "\t", "0,D2\r,5"]
        for i in range(400):
            body = []
            for _ in range(rng.randrange(6)):
                r = rng.random()
                if r < 0.5:
                    body.append(f"{rng.randrange(9)},{rng.choice(('D1', 'D2', 'D3'))},{rng.randrange(900)}")
                elif r < 0.65:
                    # a plain record with leading zeros or a wide time
                    trial = rng.choice(("0", "00", "000000000000000003"))
                    body.append(f"{trial},D1,{rng.choice(wide)}")
                elif r < 0.85:
                    body.append(",".join((rng.choice(fields), rng.choice(('D1', 'D2', 'D9', '')),
                                          rng.choice(fields))))
                else:
                    body.append(rng.choice(odd))
            newline = rng.choice(("\n", "\r\n", "\r"))
            data = (HEAD + "\n".join(body)).replace("\n", newline).encode()
            if rng.random() < 0.05:
                at = rng.randrange(len(HEAD), len(data) + 1)
                data = data[:at] + b"\xff" + data[at:]
            path = tmp_path / "odd.csv"
            path.write_bytes(data)
            assert_reads_as_per_line(path)
        # one bad record late in the last block of a body of two blocks
        plain = self.plain_body(40_000).splitlines()
        for record in ("5,D9,7", "5,D2,7,", "5,D2", "5,D2,-7", "5,D2,7 7", "5,D\udcff,7"):
            lines = list(plain)
            at = rng.randrange(len(lines) - 100, len(lines))
            lines[at] = record
            path.write_bytes((HEAD + "\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
            assert_reads_as_per_line(path)
            message = f"{path}:{at + 3}: " + ("not UTF-8 text (byte 0xff)" if "\udcff" in record else "")
            with pytest.raises(ValidationError, match=re.escape(message)):
                ClickStream.read_csv(path)


def write_per_record(stream, path):
    """Reference writer: one f-string per record."""
    names = np.array(DETECTORS)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# trials={stream.n_trials}\n")
        fh.write("trial_id,detector,time_ns\n")
        det = names[stream.detector_codes]
        lines = [
            f"{t},{d},{ts}"
            for t, d, ts in zip(stream.trial_ids.tolist(), det.tolist(),
                                stream.times_ns.tolist())
        ]
        if lines:
            fh.write("\n".join(lines) + "\n")


#: 0, 1, 10**k - 1 and 10**k for every digit count, and the int64 maximum.
EDGES = sorted({0, 1, _INT64_MAX} | {10**k + d for k in range(1, 19) for d in (-1, 0)})


def numbers(high):
    """Integers in 0..high: the edges, or one of each digit count."""
    by_width = st.integers(1, len(str(high))).flatmap(
        lambda d: st.integers(10 ** (d - 1) if d > 1 else 0, min(10**d - 1, high)))
    return st.one_of(st.sampled_from([v for v in EDGES if v <= high]), by_width)


@st.composite
def click_streams(draw):
    n_trials = 1 + draw(numbers(_INT64_MAX - 1))
    records = draw(st.lists(st.tuples(numbers(n_trials - 1), st.integers(0, 2),
                                      numbers(_INT64_MAX)), max_size=12))
    ids, codes, times = zip(*records) if records else ((), (), ())
    return ClickStream(n_trials, np.array(ids, np.int64), np.array(codes, np.int8),
                       np.array(times, np.int64))


class TestWriteCsv:
    """The numpy writer must write the reference writer's bytes."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(stream=click_streams(), rows=st.integers(1, 4))
    def test_matches_per_record_reference(self, tmp_path_factory, stream, rows):
        tmp = tmp_path_factory.getbasetemp()
        with mock.patch.object(clicks, "_WRITE_ROWS", rows):
            stream.write_csv(tmp / "new.csv")
        write_per_record(stream, tmp / "reference.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "reference.csv").read_bytes()
        assert_same_stream(ClickStream.read_csv(tmp / "new.csv"), stream)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_block_edges(self, tmp_path, extra):
        rng = np.random.default_rng(extra + 5)
        size = _WRITE_ROWS + extra
        # every digit count in every block, the widest value last
        times = rng.integers(10 ** rng.integers(19, size=size), dtype=np.int64)
        times[-1] = _INT64_MAX
        stream = ClickStream(10**12, np.sort(rng.integers(10**12, size=size)),
                             rng.integers(3, size=size).astype(np.int8), times)
        stream.write_csv(tmp_path / "new.csv")
        write_per_record(stream, tmp_path / "reference.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert_same_stream(ClickStream.read_csv(tmp_path / "new.csv"), stream)

    def test_rewrites_golden_file(self, tmp_path):
        ClickStream.read_csv(GOLDEN_CLICKS).write_csv(tmp_path / "clicks.csv")
        assert (tmp_path / "clicks.csv").read_bytes() == GOLDEN_CLICKS.read_bytes()

    @pytest.mark.parametrize("n_trials, ids, codes, times, message", [
        (0, [], [], [], "click stream reports zero trials"),
        (2**63, [], [], [], f"trial count {2**63} is not an integer in 1..{_INT64_MAX}"),
        (5.0, [0], [1], [5], f"trial count 5.0 is not an integer in 1..{_INT64_MAX}"),
        (3, [0, 3], [1, 2], [5, 6], "trial id 3 outside 0..2"),
        (3, [-1, 0], [1, 2], [5, 6], "trial id -1 outside 0..2"),
        (3, [0, 1], [1, 3], [5, 6], "detector code 3 outside 0..2"),
        (3, [0, 1], [-1, 2], [5, 6], "detector code -1 outside 0..2"),
        (3, [0, 1], [1, 2], [5, -6], "negative time -6 ns"),
    ], ids=["zero-trials", "trials-past-int64", "float-trials", "id-past-end", "negative-id",
            "code-3", "code-minus-1", "negative-time"])
    def test_rejects_what_the_reader_rejects(self, n_trials, ids, codes, times, message):
        # the constructor holds the rules, so neither write_csv nor
        # count_trials ever sees such a stream
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ClickStream(n_trials, np.array(ids, np.int64), np.array(codes, np.int8),
                        np.array(times, np.int64))

    def test_accepts_any_integer_dtype(self, tmp_path):
        stream = ClickStream(7, np.array([0, 6], np.int32), np.array([0, 2]),
                             np.array([9, 10], np.uint16))
        stream.write_csv(tmp_path / "clicks.csv")
        assert (tmp_path / "clicks.csv").read_text() == (
            "# trials=7\ntrial_id,detector,time_ns\n0,D1,9\n6,D3,10\n")


class TestEstimators:
    def test_raw_formula(self):
        c = TrialCounts(n_trials=1000, n1=0.1, n2=0.2, n12=30, nn1=0, nn2=0)
        assert g2_raw(c) == pytest.approx(30 / (1000 * 0.1 * 0.2))

    def test_no_coincidences_gives_zero(self):
        c = TrialCounts(n_trials=1000, n1=0.1, n2=0.2, n12=0, nn1=0, nn2=0)
        assert g2_raw(c) == 0.0

    def test_zero_singles_error(self):
        c = TrialCounts(n_trials=1000, n1=0.0, n2=0.2, n12=0, nn1=0, nn2=0)
        with pytest.raises(ValidationError):
            g2_raw(c)

    def test_corrected_equals_raw_without_noise(self):
        c = TrialCounts(n_trials=1000, n1=0.1, n2=0.2, n12=30, nn1=0.0, nn2=0.0)
        assert g2_noise_corrected(c) == g2_raw(c)

    def test_corrected_formula(self):
        c = TrialCounts(n_trials=1000, n1=0.1, n2=0.2, n12=10, nn1=0.01, nn2=0.02)
        g2n = g2_raw(c)
        a = 0.01 / 0.09
        b = 0.02 / 0.18
        expected = g2n - (1 - g2n) * (a + b + a * b)
        assert g2_noise_corrected(c) == pytest.approx(expected, rel=1e-12)

    def test_correction_direction(self):
        # anti-bunched signal pulled up by noise: corrected < raw
        low = TrialCounts(n_trials=10000, n1=0.1, n2=0.1, n12=20, nn1=0.005, nn2=0.005)
        assert g2_raw(low) < 1
        assert g2_noise_corrected(low) < g2_raw(low)
        # bunched signal diluted by noise: corrected > raw
        high = TrialCounts(n_trials=10000, n1=0.1, n2=0.1, n12=150, nn1=0.005, nn2=0.005)
        assert g2_raw(high) > 1
        assert g2_noise_corrected(high) > g2_raw(high)

    def test_noise_exceeding_signal(self):
        c = TrialCounts(n_trials=1000, n1=0.01, n2=0.2, n12=1, nn1=0.02, nn2=0.0)
        with pytest.raises(ValidationError):
            g2_noise_corrected(c)

    def test_correlated_pairs_cross_correlation(self):
        # pair probability q per trial on both roles -> 1/q
        q = 0.05
        n = 20000
        c = TrialCounts(n_trials=n, n1=q, n2=q, n12=int(q * n), nn1=0, nn2=0)
        assert g2_raw(c) == pytest.approx(1 / q, rel=1e-12)


class TestSynthesize:
    def test_vacuum_no_noise_is_empty(self):
        stream = synthesize(fock_state(0, 5), 100, WINDOWS, seed=3)
        assert stream.n_records == 0
        assert stream.n_trials == 100

    def test_single_photon_never_coincides(self):
        stream = synthesize(fock_state(1, 5), 20000, WINDOWS, seed=4)
        counts = count_trials(stream, WINDOWS).counts()
        assert counts.n12 == 0
        assert counts.n1 + counts.n2 == pytest.approx(1.0, abs=1e-12)

    def test_coherent_gives_poissonian_g2(self):
        stream = synthesize(coherent(0.2, 15), 200_000, WINDOWS, seed=5)
        data = count_trials(stream, WINDOWS)
        g2 = g2_raw(data.counts())
        err = bootstrap_error(data, resamples=400, seed=6)
        assert abs(g2 - 1.0) < 3 * err

    def test_deterministic(self):
        a = synthesize(coherent(0.3, 15), 5000, WINDOWS, seed=7)
        b = synthesize(coherent(0.3, 15), 5000, WINDOWS, seed=7)
        np.testing.assert_array_equal(a.trial_ids, b.trial_ids)
        np.testing.assert_array_equal(a.times_ns, b.times_ns)

    def test_noise_lands_in_both_windows(self):
        stream = synthesize(
            fock_state(0, 5), 50_000, WINDOWS, noise_rates_hz=(5e4, 5e4), seed=8
        )
        t = stream.times_ns
        in_signal = ((t >= 0) & (t < 300)).sum()
        in_noise = ((t >= 500) & (t < 1100)).sum()
        assert in_signal > 0 and in_noise > 0
        assert in_signal + in_noise == stream.n_records
        # rate ratio follows window lengths
        assert in_noise / in_signal == pytest.approx(2.0, rel=0.15)

    @pytest.mark.parametrize("n_trials, rates, message", [
        (100, (float("nan"), 0.0), "noise rates must lie in [0, 1e9] Hz, got (nan, 0.0)"),
        (100, (0.0, float("inf")), "noise rates must lie in [0, 1e9] Hz, got (0.0, inf)"),
        (100, (1e30, 0.0), "noise rates must lie in [0, 1e9] Hz, got (1e+30, 0.0)"),
        (100, (-1.0, 0.0), "noise rates must lie in [0, 1e9] Hz, got (-1.0, 0.0)"),
        (2.5, (0.0, 0.0), "n_trials must be an integer >= 1, got 2.5"),
        (float("nan"), (0.0, 0.0), "n_trials must be an integer >= 1, got nan"),
        (0, (0.0, 0.0), "n_trials must be an integer >= 1, got 0"),
    ], ids=["nan-rate", "inf-rate", "huge-rate", "negative-rate",
            "fractional-trials", "nan-trials", "zero-trials"])
    def test_rejects_input_naming_it(self, n_trials, rates, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            synthesize(coherent(0.3, 15), n_trials, WINDOWS, noise_rates_hz=rates, seed=1)

    @pytest.mark.parametrize("dist, windows, rates", [
        (fock_state(0, 5), WINDOWS, (0.0, 0.0)),
        (fock_state(0, 5), WINDOWS, (2e5, 5e4)),
        (coherent(0.4, 15), WINDOWS, (1e4, 2e4)),
        (coherent(0.8, 15), WindowSpec((40, 90), (0, 2000), (3000, 3100)), (3e5, 0.0)),
        (coherent(0.8, 15), WindowSpec((900, 1000), (400, 450), (0, 100)), (0.0, 1e6)),
    ], ids=["vacuum", "noise-only", "default", "long-signal-2", "noise-first"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_order_matches_lexsort(self, dist, windows, rates, seed):
        """The sorted sequence of a multiset of records is unique, so a
        stream that ``np.lexsort`` leaves as it is holds the records in
        lexsort's order."""
        stream = synthesize(dist, 3000, windows, noise_rates_hz=rates, seed=seed)
        ids, codes, times = stream.trial_ids, stream.detector_codes, stream.times_ns
        order = np.lexsort((codes, times, ids))
        for column in (ids, codes, times):
            np.testing.assert_array_equal(column[order], column)
        assert (ids.dtype, codes.dtype, times.dtype) == (np.int64, np.int8, np.int64)

    @pytest.mark.parametrize("dist", [fock_state(0, 5), coherent(3.0, 30)])
    def test_sort_key_bound(self, dist):
        # 3 * n_trials * t_end <= 2**63 holds for t_end = 2**63 // 3 and
        # fails one nanosecond later
        limit = 2**63 // 3
        stream = synthesize(dist, 1, WindowSpec(noise=(500, limit)), seed=4)
        assert stream.n_trials == 1
        windows = WindowSpec(signal_1=(limit - 10, limit), signal_2=(0, limit + 1),
                             noise=(limit + 1, limit + 2))
        message = f"n_trials=1 with a window end of {limit + 2} ns overflows"
        with pytest.raises(ValidationError, match=re.escape(message)):
            synthesize(dist, 1, windows, seed=4)
        stream = synthesize(dist, 1, WindowSpec((limit - 10, limit), noise=(0, 100)), seed=4)
        assert (stream.times_ns >= limit - 10).all()

    def test_file_round_trip_exact(self, tmp_path):
        stream = synthesize(
            coherent(0.4, 15), 3000, WINDOWS, noise_rates_hz=(1e4, 2e4), seed=9
        )
        path = tmp_path / "synthetic.csv"
        stream.write_csv(path)
        back = ClickStream.read_csv(path)
        assert back.n_trials == stream.n_trials
        np.testing.assert_array_equal(back.trial_ids, stream.trial_ids)
        np.testing.assert_array_equal(back.detector_codes, stream.detector_codes)
        np.testing.assert_array_equal(back.times_ns, stream.times_ns)
        a = count_trials(stream, WINDOWS).counts()
        b = count_trials(back, WINDOWS).counts()
        assert a == b


class TestClosedLoop:
    @pytest.mark.parametrize(
        "dist,expected",
        [
            (coherent(0.2, 15), 1.0),
            (fock_state(1, 15), 0.0),
            (conditional_read_state(SourceModel(0.05, 0.21), 15), None),
        ],
        ids=["coherent", "fock1", "heralded"],
    )
    def test_recovers_distribution_g2(self, dist, expected):
        if expected is None:
            expected = dist.g2()
        stream = synthesize(dist, 150_000, WINDOWS, seed=11)
        data = count_trials(stream, WINDOWS)
        g2 = g2_raw(data.counts())
        err = bootstrap_error(data, resamples=300, seed=12)
        assert abs(g2 - expected) <= 3 * err + 1e-12

    def test_noise_corrected_recovers_antibunched_signal(self):
        # single photons plus uncorrelated background: raw is pulled up,
        # corrected recovers ~0
        stream = synthesize(
            fock_state(1, 10), 100_000, WINDOWS, noise_rates_hz=(2e4, 2e4), seed=13
        )
        data = count_trials(stream, WINDOWS)
        counts = data.counts()
        assert g2_raw(counts) > 0
        err = bootstrap_error(data, resamples=300, seed=14)
        assert abs(g2_noise_corrected(counts)) <= 3 * err

    @staticmethod
    def click_g2(dist):
        """P(c1 c2) / (P(c1) P(c2)) with k photons split 50/50 onto two
        click detectors: a role stays dark with probability 2^-k, both
        only at k = 0.  Poissonian light gives exactly 1, one photon 0."""
        k = np.arange(dist.probs.size)
        dark = 0.5 ** k
        one = dist.probs @ (1.0 - dark)
        both = dist.probs @ (1.0 - 2.0 * dark + (k == 0))
        return both / one**2

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        dist=st.one_of(
            st.floats(0.05, 0.6).map(lambda mu: coherent(mu, 15)),
            st.floats(0.01, 0.3).map(lambda p: conditional_read_state(SourceModel(p, 0.21), 40)),
            st.just(fock_state(1, 15)),
        ),
        rate_hz=st.sampled_from([0.0, 5e3, 2e4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noise_corrected_recovers_synthetic_g2(self, dist, rate_hz, seed):
        stream = synthesize(dist, 20_000, WINDOWS, noise_rates_hz=(rate_hz, rate_hz), seed=seed)
        data = count_trials(stream, WINDOWS)
        g2 = g2_noise_corrected(data.counts())
        err = bootstrap_error(data, resamples=200, seed=seed)
        assert abs(g2 - self.click_g2(dist)) <= 4 * err + 1e-12


class TestBootstrap:
    def make_data(self, n, seed=21):
        stream = synthesize(coherent(0.3, 15), n, WINDOWS, seed=seed)
        return count_trials(stream, WINDOWS)

    def test_deterministic(self):
        data = self.make_data(20_000)
        a = bootstrap_error(data, resamples=200, seed=1)
        b = bootstrap_error(data, resamples=200, seed=1)
        assert a == b

    def test_zero_variance_data(self):
        stream = synthesize(fock_state(1, 5), 1000, WINDOWS, seed=2)
        data = count_trials(stream, WINDOWS)
        assert bootstrap_error(data, resamples=150, seed=3) == 0.0

    def test_error_shrinks_with_duplication(self):
        data = self.make_data(20_000)
        doubled = type(data)(
            n_trials=2 * data.n_trials,
            patterns=data.patterns,
            weights=2 * data.weights,
            windows=data.windows,
        )
        e1 = bootstrap_error(data, resamples=2000, seed=4)
        e2 = bootstrap_error(doubled, resamples=2000, seed=5)
        assert e2 / e1 == pytest.approx(1 / np.sqrt(2), rel=0.15)

    def test_coverage_of_poissonian_truth(self):
        # interval g2 +- 3 err should cover 1 in nearly all seeded runs
        hits = 0
        for seed in range(40):
            stream = synthesize(coherent(0.25, 15), 4000, WINDOWS, seed=100 + seed)
            data = count_trials(stream, WINDOWS)
            g2 = g2_raw(data.counts())
            err = bootstrap_error(data, resamples=200, seed=seed)
            hits += abs(g2 - 1.0) <= 3 * err
        assert hits >= 36

    def test_insufficient_trials(self):
        stream = synthesize(coherent(0.3, 15), 5, WINDOWS, seed=6)
        data = count_trials(stream, WINDOWS)
        with pytest.raises(ValidationError):
            bootstrap_error(data, resamples=150, seed=7)

    def test_no_resample_with_clicks_is_degenerate(self):
        silent = TrialData(10, np.zeros((4, 1)), np.array([10]), WindowSpec())
        with pytest.raises(NumericalError, match="bootstrap degenerate"):
            bootstrap_error(silent)

    def test_list_weights_act_as_an_array(self):
        silent = TrialData(10, np.zeros((4, 1)), [10], WindowSpec())
        assert isinstance(silent.weights, np.ndarray)
        with pytest.raises(NumericalError, match="bootstrap degenerate"):
            bootstrap_error(silent)

    @staticmethod
    def trial_columns(stream, windows):
        """The (sig1, sig2, noise1, noise2) rows, one entry per trial, read
        off the stream's records with set operations (D2 is role 1, D3
        role 2)."""
        rows = []
        for name, signal in (("D2", windows.signal_1), ("D3", windows.signal_2)):
            mine = stream.detector_codes == DETECTORS.index(name)
            ids, t = stream.trial_ids[mine], stream.times_ns[mine]
            in_signal = set(ids[(t >= signal[0]) & (t < signal[1])].tolist())
            rows.append(np.isin(np.arange(stream.n_trials), list(in_signal)).astype(np.int64))
            noise_ids, noise_clicks = np.unique(
                ids[(t >= windows.noise[0]) & (t < windows.noise[1])], return_counts=True)
            rows.append(np.zeros(stream.n_trials, dtype=np.int64))
            rows[-1][noise_ids] = noise_clicks
        return np.stack([rows[0], rows[2], rows[1], rows[3]])

    @staticmethod
    def reference_error(classes, class_counts, windows, resamples, seed):
        """The bootstrap over classes from np.unique(axis=1) on the
        per-trial columns."""
        pvals = class_counts / class_counts.sum()
        pvals = pvals / pvals.sum()
        n = int(class_counts.sum())
        w = np.random.default_rng(seed).multinomial(n, pvals, size=resamples).astype(float)
        len1, len2 = windows.signal_lengths
        scale = windows.noise_length
        n1 = w @ classes[0].astype(float) / n
        n2 = w @ classes[1].astype(float) / n
        n12 = w @ (classes[0] & classes[1]).astype(float)
        nn1 = (w @ classes[2].astype(float)) / n * (len1 / scale)
        nn2 = (w @ classes[3].astype(float)) / n * (len2 / scale)
        valid = (n1 > 0) & (n2 > 0) & (n1 > nn1) & (n2 > nn2)
        n1, n2, n12, nn1, nn2 = (x[valid] for x in (n1, n2, n12, nn1, nn2))
        g2n = n12 / (n * n1 * n2)
        a = np.where(nn1 > 0, nn1 / (n1 - nn1), 0.0)
        b = np.where(nn2 > 0, nn2 / (n2 - nn2), 0.0)
        return float(np.std(g2n - (1.0 - g2n) * (a + b + a * b), ddof=1))

    @pytest.mark.parametrize("noise", [(2e5, 3e5), (0.0, 0.0)], ids=["noisy", "noise-free"])
    def test_matches_unique_columns_reference(self, noise):
        stream = synthesize(coherent(0.5, 15), 30_000, WINDOWS, noise_rates_hz=noise, seed=41)
        columns = self.trial_columns(stream, WINDOWS)
        if noise[0]:
            assert columns[2].max() >= 2 and columns[3].max() >= 2
        else:
            assert columns[2].max() == 0 and columns[3].max() == 0
        classes, class_counts = np.unique(columns, axis=1, return_counts=True)
        data = count_trials(stream, WINDOWS)
        np.testing.assert_array_equal(data.patterns, classes)
        np.testing.assert_array_equal(data.weights, class_counts)
        assert bootstrap_error(data, resamples=300, seed=42) == self.reference_error(
            classes, class_counts, WINDOWS, 300, 42)

    def test_too_few_resamples(self):
        data = self.make_data(1000)
        with pytest.raises(ValidationError):
            bootstrap_error(data, resamples=50, seed=8)


class TestTrialData:
    @pytest.mark.parametrize("n_trials, patterns, weights, message", [
        (10, np.zeros((3, 1)), [10], r"patterns must have shape \(4, k\), got \(3, 1\)"),
        (10, np.zeros(4), [10], r"patterns must have shape \(4, k\), got \(4,\)"),
        (10, np.full((4, 1), -1), [10], "patterns must hold whole numbers >= 0"),
        (10, np.full((4, 1), 0.5), [10], "patterns must hold whole numbers >= 0"),
        (10, np.full((4, 1), np.nan), [10], "patterns must hold whole numbers >= 0"),
        (10, np.full((4, 1), np.inf), [10], "patterns must hold whole numbers >= 0"),
        (10, [[2], [0], [0], [0]], [10],
         r"patterns: the signal rows \(the first two\) must hold only 0 or 1"),
        (10, [[0], [1], [0], [0]], [[10]],
         r"weights must have shape \(1,\), one per pattern, got \(1, 1\)"),
        (10, np.zeros((4, 2)), [10], r"weights must have shape \(2,\), one per pattern, got \(1,\)"),
        (10, np.zeros((4, 1)), [-10], "weights must hold whole numbers >= 0"),
        (10, np.zeros((4, 1)), [10.5], "weights must hold whole numbers >= 0"),
        (10, [[0, 1], [0, 1], [0, 3], [0, 0]], [3, 4], "weights sum to 7, not n_trials=10"),
        (0, np.zeros((4, 0)), [], "n_trials must be an integer >= 1, got 0"),
    ], ids=["three-rows", "1-d", "negative", "fraction", "nan", "inf", "signal-2",
            "weights-2-d", "weights-short", "negative-weight", "fractional-weight",
            "weights-sum", "no-trials"])
    def test_rejects_a_malformed_table(self, n_trials, patterns, weights, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            TrialData(n_trials, patterns, weights, WINDOWS)

    def test_noise_rows_take_any_count(self):
        data = TrialData(10, [[0, 1], [0, 1], [0, 3], [0, 2]], [6, 4], WINDOWS)
        assert data.counts() == TrialCounts(10, 0.4, 0.4, 4, 0.6, 0.4)


class TestReport:
    def test_fields_present(self):
        stream = synthesize(
            coherent(0.3, 15), 20_000, WINDOWS, noise_rates_hz=(1e4, 1e4), seed=31
        )
        data = count_trials(stream, WINDOWS)
        report = analysis_report(data, resamples=200, seed=32)
        for key in ("N", "n1", "n2", "n12", "nn1", "nn2",
                    "g2_raw", "g2_corrected", "error", "windows"):
            assert key in report
        assert report["N"] == 20_000
        assert report["windows"]["noise"] == [500, 1100]
