import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydstats import ValidationError
from rydstats._table import read_table, write_table

finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda width: st.lists(st.lists(finite, min_size=width, max_size=width), max_size=8)
    .map(lambda rows: (width, rows))))
def test_round_trip_is_bit_exact(tmp_path_factory, table):
    width, rows = table
    path = tmp_path_factory.mktemp("table") / "t.csv"
    header = [f"c{i}" for i in range(width)]
    write_table(path, header, rows)
    back = read_table(path, header)
    expected = np.array(rows, dtype=float).reshape(len(rows), width)
    assert back.shape == expected.shape
    # compare bit patterns, so -0.0 and 0.0 differ
    np.testing.assert_array_equal(back.view(np.int64), expected.view(np.int64))


def test_writes_integers_as_integers(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("k", "x"), [(0, 0.5), (np.int64(1), np.float64(2)), (2, 1e-300)])
    assert path.read_text() == "k,x\n0,0.5\n1,2.0\n2,1e-300\n"


def test_failing_row_leaves_no_file(tmp_path):
    path = tmp_path / "t.csv"

    def rows():
        yield (0, 1.0)
        raise ValidationError("bad row")

    with pytest.raises(ValidationError):
        write_table(path, ("k", "x"), rows())
    assert not path.exists()


def test_skips_blank_lines_and_strips_fields(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a, b\n\n1,2\n  \n 3 , 4 \n")
    np.testing.assert_array_equal(read_table(path, ("a", "b")), [[1.0, 2.0], [3.0, 4.0]])


def test_header_only_is_empty_table(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n")
    assert read_table(path, ("a", "b")).shape == (0, 2)


@pytest.mark.parametrize(
    "body, message",
    [
        ("a,c\n1,2\n", ":1: expected header 'a,b', got 'a,c'"),
        ("", ":1: expected header 'a,b', got ''"),
        ("a,b\n1,2\n1,2,3\n", ":3: expected 2 fields, got 3"),
        ("a,b\n1\n", ":2: expected 2 fields, got 1"),
        ("a,b\n\n1,x\n", ":3: malformed row"),
        ("a,b\n1,nan\n", ":2: non-finite value in '1,nan'"),
        ("a,b\n1,2\n-inf,2\n", ":3: non-finite value"),
    ],
    ids=["header", "empty", "extra-field", "missing-field", "not-a-number", "nan", "inf"],
)
def test_rejects_with_path_and_line(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text(body)
    with pytest.raises(ValidationError, match="^" + re.escape(f"{path}{message}")):
        read_table(path, ("a", "b"))


def test_byte_order_mark_is_skipped(tmp_path):
    # Excel's "CSV UTF-8" starts the file with one
    path = tmp_path / "t.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
    np.testing.assert_array_equal(read_table(path, ("a", "b")), [[1.0, 2.0]])


def test_non_utf8_is_validation_error_naming_the_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\n1,2\n3,\xff\n")
    with pytest.raises(ValidationError, match=re.escape(f"{path}:3: not UTF-8 text (byte 0xff)")):
        read_table(path, ("a", "b"))


@pytest.mark.parametrize("body, message", [
    (b"p_w,eta\n0.01,x\n0.02,\xff\n", ":2: malformed row"),
    (b"p_w,\xe9ta\n0.01,0.2\n", ":1: not UTF-8 text (byte 0xe9)"),
], ids=["earlier-row", "header"])
def test_non_utf8_byte_is_reported_in_line_order(tmp_path, body, message):
    path = tmp_path / "eff.csv"
    path.write_bytes(body)
    with pytest.raises(ValidationError, match="^" + re.escape(f"{path}{message}")):
        read_table(path, ("p_w", "eta"))
