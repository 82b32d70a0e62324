"""Machine-readable run reports: nested key-value text, CSV series, and
binary field dumps.

A field dump (version 1) is a 32-byte header (magic, version, n, the six
axis sizes with 0 past 2n) followed by each grid point's value as a
little-endian (re, im) pair of doubles in C order, which is numpy's "<c16"
layout.  dump_field writes the array it is given, broadcast to its grid;
load_field checks the header, the payload length and finiteness."""

from __future__ import annotations

import csv
import hashlib
import struct
from pathlib import Path

import numpy as np

from .grid import PeriodicGrid, ScalarField

MAGIC = b"HWFLD\x00\x00\x00"
DUMP_VERSION = 1
_HEADER = struct.Struct("<8sII6Hxxxx")  # magic, version, n, sizes[6], pad -> 32 bytes

assert _HEADER.size == 32


def sha256_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def format_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    if isinstance(v, (complex, np.complexfloating)):
        return f"{v.real:.12g}{v.imag:+.12g}i"
    return str(v)


def render_report(data: dict, title: str = "hermweb-report") -> str:
    """Nested key-value text; two-space indentation per level."""
    lines = [title]

    def emit(obj, indent):
        pad = "  " * indent
        for key, value in obj.items():
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                emit(value, indent + 1)
            elif isinstance(value, (list, tuple)):
                lines.append(f"{pad}{key}: [{', '.join(format_value(v) for v in value)}]")
            else:
                lines.append(f"{pad}{key}: {format_value(value)}")

    emit(data, 1)
    return "\n".join(lines) + "\n"


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) if isinstance(v, float) else v for v in row])


def dump_field(path, grid: PeriodicGrid, values) -> None:
    """Dump values, real or complex, broadcast to grid's shape."""
    sizes = list(grid.sizes) + [0] * (6 - len(grid.sizes))
    header = _HEADER.pack(MAGIC, DUMP_VERSION, grid.n, *sizes)
    Path(path).write_bytes(header + np.broadcast_to(values, grid.shape).astype("<c16").tobytes())


def load_field(path) -> ScalarField:
    """Read a dump written by dump_field; ValueError on a malformed file."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError(f"field dump is {len(blob)} bytes, shorter than its header")
    magic, version, n, *sizes = _HEADER.unpack(blob[: _HEADER.size])
    if magic != MAGIC:
        raise ValueError(f"bad field dump magic {magic!r}")
    if version != DUMP_VERSION:
        raise ValueError(f"unsupported field dump version {version}")
    grid = PeriodicGrid(n, tuple(s for s in sizes if s > 0))
    payload = len(blob) - _HEADER.size
    if payload != 16 * grid.num_points:
        raise ValueError(
            f"field dump payload is {payload} bytes; the header's grid {grid.sizes} needs {16 * grid.num_points}"
        )
    values = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size)
    if not np.isfinite(values).all():
        raise ValueError("field dump holds non-finite values")
    return ScalarField(grid, values.reshape(grid.shape))
