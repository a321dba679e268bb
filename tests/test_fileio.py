import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateau.domain import DomainParams, FuncTable
from plateau.errors import FileFormatError
from plateau.fileio import (
    MAGIC,
    format_binary,
    format_text,
    parse_function_bytes,
    parse_function_file,
    write_function_file,
)


def random_table(p, n, m, seed):
    rng = np.random.default_rng(seed)
    pr = DomainParams(p, n, m)
    return FuncTable(pr, rng.integers(pr.codomain_size, size=pr.domain_size))


def test_text_round_trip():
    for p, n, m, seed in ((2, 5, 3, 71), (3, 3, 2, 72), (5, 2, 4, 73)):
        tbl = random_table(p, n, m, seed)
        again = parse_function_bytes(format_text(tbl).encode())
        assert again == tbl


def test_binary_round_trip_all_widths():
    # u1, u2, and u4 payload entries respectively
    for p, n, m, seed in ((2, 6, 4, 74), (2, 5, 10, 75), (3, 2, 11, 76)):
        tbl = random_table(p, n, m, seed)
        blob = format_binary(tbl)
        assert blob.startswith(MAGIC)
        width = (blob[len(MAGIC) + 12 :].__len__()) // (p**n)
        assert width == {4: 1, 10: 2, 11: 4}[m]
        again = parse_function_bytes(blob)
        assert again == tbl


def test_binary_format_stops_at_u32(tmp_path):
    """Entries past u32 (p^m > 2^32) have no binary width: writing and parsing
    both refuse them, while the text form still round-trips."""
    tbl = FuncTable(DomainParams(2, 1, 33), [0, (1 << 33) - 1])
    with pytest.raises(FileFormatError, match="u32"):
        format_binary(tbl)
    with pytest.raises(FileFormatError, match="u32"):
        write_function_file(tbl, tmp_path / "t.bin", binary=True)
    blob = MAGIC + struct.pack("<III", 2, 1, 33) + bytes(16)
    with pytest.raises(FileFormatError, match="u32"):
        parse_function_bytes(blob)
    assert parse_function_bytes(format_text(tbl).encode()) == tbl


def test_file_round_trip(tmp_path):
    tbl = random_table(3, 3, 2, 77)
    t = tmp_path / "t.txt"
    b = tmp_path / "t.bin"
    write_function_file(tbl, t)
    write_function_file(tbl, b, binary=True)
    assert parse_function_file(t) == tbl
    assert parse_function_file(b) == tbl


def test_text_format_shape():
    tbl = random_table(2, 5, 2, 78)
    text = format_text(tbl)
    lines = text.splitlines()
    assert lines[0] == "2 5 2"
    assert len(lines) == 3
    assert len(lines[1].split()) == 16
    assert text.endswith("\n")


def test_text_accepts_flexible_whitespace():
    tbl = parse_function_bytes(b"2 2 1\n0 1\n\n  1\t0\n")
    assert list(tbl) == [0, 1, 1, 0]


def test_text_header_errors():
    with pytest.raises(FileFormatError, match=r"f:1: missing header"):
        parse_function_bytes(b"", "f")
    with pytest.raises(FileFormatError, match=r"f:1: header must be three"):
        parse_function_bytes(b"2 2\n0 1 2 3\n", "f")
    with pytest.raises(FileFormatError, match=r"f:1: header fields must be integers"):
        parse_function_bytes(b"2 x 1\n0 1\n", "f")
    with pytest.raises(FileFormatError, match=r"f:1: p must be prime"):
        parse_function_bytes(b"4 2 1\n0 0 0 0\n", "f")


def test_text_entry_errors_carry_line_numbers():
    with pytest.raises(FileFormatError, match=r"f:3: non-integer entry"):
        parse_function_bytes(b"2 2 1\n0 1\n1 z\n", "f")
    with pytest.raises(FileFormatError, match=r"f:2: value 2 outside \[0, 2\)"):
        parse_function_bytes(b"2 2 1\n0 2\n1 0\n", "f")
    with pytest.raises(FileFormatError, match=r"f:3: more than 4 entries"):
        parse_function_bytes(b"2 2 1\n0 1 0\n1 1\n", "f")
    with pytest.raises(FileFormatError, match=r"f: expected 4 entries, got 3"):
        parse_function_bytes(b"2 2 1\n0 1 0\n", "f")
    with pytest.raises(FileFormatError, match=r"not ASCII text at byte 5"):
        parse_function_bytes(b"2 2 1\xff\n0 1 0 1\n", "f")


def test_binary_errors_carry_byte_offsets():
    tbl = random_table(2, 3, 2, 79)
    blob = format_binary(tbl)
    with pytest.raises(FileFormatError, match=r"truncated header at byte 9"):
        parse_function_bytes(blob[:9], "f")
    with pytest.raises(FileFormatError, match=r"byte 17: expected 8 payload"):
        parse_function_bytes(blob + b"\x00", "f")
    bad = bytearray(blob)
    bad[17 + 5] = 7  # entry 5 out of range for p^m = 4
    with pytest.raises(FileFormatError, match=r"byte 22: value 7"):
        parse_function_bytes(bytes(bad), "f")
    head = bytearray(blob)
    head[5] = 9  # p = 9 in the header
    with pytest.raises(FileFormatError, match=r"byte 5: p must be prime"):
        parse_function_bytes(bytes(head), "f")


def test_magic_decides_the_format():
    # a text file starting with the magic bytes is impossible; absence of
    # magic always routes to the text parser
    tbl = random_table(2, 2, 2, 80)
    blob = format_binary(tbl)
    assert parse_function_bytes(blob) == tbl
    text = format_text(tbl).encode()
    assert not text.startswith(MAGIC)
    assert parse_function_bytes(text) == tbl


def test_parse_missing_file():
    with pytest.raises(FileFormatError, match="no-such-file"):
        parse_function_file("/tmp/plateau-no-such-file.txt")


@st.composite
def mutated_tables(draw):
    """The text or binary form of a small valid table, with up to eight
    bytes replaced, inserted or deleted."""
    p, n, m = draw(st.sampled_from([(2, 3, 2), (3, 2, 2), (5, 1, 3), (2, 2, 9)]))
    tbl = random_table(p, n, m, draw(st.integers(0, 99)))
    data = bytearray(format_binary(tbl) if draw(st.booleans()) else format_text(tbl).encode())
    edits = st.tuples(st.sampled_from("rid"), st.integers(0, 1 << 16), st.integers(0, 255))
    for op, pos, byte in draw(st.lists(edits, max_size=8)):
        pos %= len(data) + 1
        if op == "i":
            data.insert(pos, byte)
        elif pos < len(data):
            if op == "r":
                data[pos] = byte
            else:
                del data[pos]
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(mutated_tables())
def test_mutated_input_parses_or_raises_file_format_error(data):
    try:
        tbl = parse_function_bytes(data, "f")
    except FileFormatError:
        return
    assert isinstance(tbl, FuncTable)
