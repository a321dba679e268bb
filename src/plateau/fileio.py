"""Reading and writing function tables.

Two interchange forms share one reader:

* text: a header line ``p n m``, then p^n whitespace-separated integers in
  [0, p^m), listed in input-index order;
* binary: magic ``PLTB1``, three little-endian u32 fields p, n, m, then p^n
  entries as little-endian u8/u16/u32, the narrowest width that holds p^m - 1.

A parsed table's values are in domain.value_dtype(p^m), the binary entry
width, and a binary payload given as bytes is their storage, with no copy.
Parse failures raise FileFormatError pointing at the offending line (text) or
byte offset (binary).
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Union

import numpy as np

from .domain import DomainParams, FuncTable, value_dtype
from .errors import FileFormatError

MAGIC = b"PLTB1"
_HEADER = struct.Struct("<III")
_PER_LINE = 16  # entries per line of the text form


def _entry_dtype(codomain_size: int) -> np.dtype:
    """The table's value_dtype, little-endian; the format stops at u32."""
    dt = value_dtype(codomain_size)
    if dt.itemsize > 4:
        raise FileFormatError("binary format holds entries up to u32; p^m exceeds 2^32")
    return dt.newbyteorder("<")


def _parse_text(data: bytes, name: str) -> FuncTable:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as e:
        raise FileFormatError(f"{name}: not ASCII text at byte {e.start}") from None
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise FileFormatError(f"{name}:1: missing header line 'p n m'")
    head = lines[0].split()
    if len(head) != 3:
        raise FileFormatError(
            f"{name}:1: header must be three integers 'p n m', got {len(head)} fields"
        )
    try:
        p, n, m = (int(tok) for tok in head)
    except ValueError:
        raise FileFormatError(f"{name}:1: header fields must be integers") from None
    try:
        params = DomainParams(p, n, m)
    except ValueError as e:
        raise FileFormatError(f"{name}:1: {e}") from None
    # every entry takes at least one byte, so a body shorter than p^n cannot
    # hold the table; refusing it here bounds the allocation below by the
    # file's own size
    body = len(text) - len(lines[0])
    if body < params.domain_size:
        raise FileFormatError(
            f"{name}:1: header promises {params.domain_size} entries, "
            f"but only {body} bytes follow it"
        )
    vals = np.empty(params.domain_size, dtype=value_dtype(params.codomain_size))
    filled = 0
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise FileFormatError(f"{name}:{lineno}: non-integer entry") from None
        if filled + len(row) > params.domain_size:
            raise FileFormatError(
                f"{name}:{lineno}: more than {params.domain_size} entries"
            )
        # checked as Python ints, so no entry is too large to report
        bad = next((v for v in row if not 0 <= v < params.codomain_size), None)
        if bad is not None:
            raise FileFormatError(
                f"{name}:{lineno}: value {bad} outside [0, {params.codomain_size})"
            )
        vals[filled : filled + len(row)] = row
        filled += len(row)
    if filled != params.domain_size:
        raise FileFormatError(
            f"{name}: expected {params.domain_size} entries, got {filled}"
        )
    vals.setflags(write=False)
    return FuncTable(params, vals)


def _parse_binary(data: bytes, name: str) -> FuncTable:
    if len(data) < len(MAGIC) + _HEADER.size:
        raise FileFormatError(
            f"{name}: truncated header at byte {len(data)}; need "
            f"{len(MAGIC) + _HEADER.size} bytes"
        )
    p, n, m = _HEADER.unpack_from(data, len(MAGIC))
    try:
        params = DomainParams(p, n, m)
    except ValueError as e:
        raise FileFormatError(f"{name}: byte {len(MAGIC)}: {e}") from None
    dt = _entry_dtype(params.codomain_size)
    start = len(MAGIC) + _HEADER.size
    want = params.domain_size * dt.itemsize
    if len(data) - start != want:
        raise FileFormatError(
            f"{name}: byte {start}: expected {want} payload bytes for "
            f"{params.domain_size} entries of width {dt.itemsize}, got {len(data) - start}"
        )
    # the table keeps this read-only view of the payload when data is bytes
    raw = np.frombuffer(data, dtype=dt, offset=start)
    try:
        return FuncTable(params, raw)
    except ValueError:
        # the shape is right, so a value is out of range: name its byte
        idx = int(np.argmax(raw >= params.codomain_size))
        raise FileFormatError(
            f"{name}: byte {start + idx * dt.itemsize}: value {int(raw[idx])} "
            f"outside [0, {params.codomain_size})"
        ) from None


def parse_function_bytes(data: bytes, name: str = "<bytes>") -> FuncTable:
    if data[: len(MAGIC)] == MAGIC:
        return _parse_binary(data, name)
    return _parse_text(data, name)


def parse_function_file(path: Union[str, Path]) -> FuncTable:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise FileFormatError(f"{path}: {e.strerror or e}") from None
    return parse_function_bytes(data, str(path))


def format_text(table: FuncTable) -> str:
    pr = table.params
    out = [f"{pr.p} {pr.n} {pr.m}"]
    vals = table.values
    for lo in range(0, vals.size, _PER_LINE):
        out.append(" ".join(str(int(v)) for v in vals[lo : lo + _PER_LINE]))
    return "\n".join(out) + "\n"


def format_binary(table: FuncTable) -> bytes:
    pr = table.params
    dt = _entry_dtype(pr.codomain_size)
    payload = table.values.astype(dt, copy=False).tobytes()
    return MAGIC + _HEADER.pack(pr.p, pr.n, pr.m) + payload


def write_function_file(
    table: FuncTable, path: Union[str, Path], binary: bool = False
) -> None:
    path = Path(path)
    if binary:
        path.write_bytes(format_binary(table))
    else:
        path.write_text(format_text(table), encoding="ascii")
