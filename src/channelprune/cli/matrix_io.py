"""Matrix file I/O: GRCM binary format and headerless CSV.

GRCM layout, all little-endian:

    offset 0   magic bytes b"GRCM"
    offset 4   format version, one byte, currently 0x01
    offset 5   rows, unsigned 32-bit
    offset 9   cols, unsigned 32-bit
    offset 13  rows * cols float64 values, row-major

`load_matrix` auto-detects the format: files starting with the magic are
parsed as GRCM, anything else as CSV (one token row per line).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..core import ChannelMatrix
from ..errors import MatrixFormatError

__all__ = ["load_matrix", "save_matrix"]

_GRCM_MAGIC = b"GRCM"
_GRCM_VERSION = 0x01
_HEADER = struct.Struct("<4sBII")
_PAYLOAD_OFFSET = _HEADER.size  # 13


def _load_grcm(raw: bytes) -> ChannelMatrix:
    if len(raw) < _PAYLOAD_OFFSET:
        raise MatrixFormatError("truncated GRCM header", offset=len(raw))
    _, version, rows, cols = _HEADER.unpack_from(raw)
    if version != _GRCM_VERSION:
        raise MatrixFormatError(f"unsupported GRCM version {version:#04x}", offset=4)
    if rows == 0:
        raise MatrixFormatError("GRCM row count must be positive", offset=5)
    if cols == 0:
        raise MatrixFormatError("GRCM column count must be positive", offset=9)
    expected = _PAYLOAD_OFFSET + rows * cols * 8
    if len(raw) < expected:
        raise MatrixFormatError(
            f"truncated GRCM payload, expected {expected} bytes, found {len(raw)}",
            offset=len(raw),
        )
    if len(raw) > expected:
        raise MatrixFormatError(f"{len(raw) - expected} trailing bytes after GRCM payload", offset=expected)
    values = np.frombuffer(raw, dtype="<f8", offset=_PAYLOAD_OFFSET).reshape(rows, cols)
    return ChannelMatrix(values)


def _load_csv(raw: bytes, path: Path) -> ChannelMatrix:
    try:
        text = raw.decode("utf-8-sig")  # a leading byte-order mark, as spreadsheets write, is not data
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path} is neither GRCM nor UTF-8 CSV", offset=0) from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatrixFormatError(f"{path} contains no matrix rows", offset=0)
    rows: list[list[float]] = []
    width: int | None = None
    for i, line in enumerate(lines):
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise MatrixFormatError(f"CSV row {i} has {len(fields)} fields, expected {width}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise MatrixFormatError(f"CSV row {i} has a non-numeric field: {exc}") from exc
    return ChannelMatrix(np.asarray(rows, dtype=np.float64))


def load_matrix(path: str | Path) -> ChannelMatrix:
    """Read a matrix from a GRCM or CSV file, auto-detecting the format."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] == _GRCM_MAGIC:
        return _load_grcm(raw)
    return _load_csv(raw, path)


def save_matrix(m: ChannelMatrix, path: str | Path) -> None:
    """Write a matrix in GRCM format, truncating any existing file."""
    header = _HEADER.pack(_GRCM_MAGIC, _GRCM_VERSION, m.rows, m.cols)
    Path(path).write_bytes(header + m.data.tobytes(order="C"))
