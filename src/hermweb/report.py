"""Machine-readable run reports: nested key-value text, CSV series, and
binary field dumps (32-byte header + IEEE double pairs)."""

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
    if isinstance(v, (bool, np.bool_)) or v is None:
        return {True: "true", False: "false", None: "none"}[bool(v)] if v is not None else "none"
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


def dump_field(path, f: ScalarField) -> None:
    sizes = list(f.grid.sizes) + [0] * (6 - len(f.grid.sizes))
    header = _HEADER.pack(MAGIC, DUMP_VERSION, f.grid.n, *sizes)
    flat = np.ascontiguousarray(f.values, dtype=np.complex128)
    pairs = np.empty(flat.size * 2, dtype="<f8")
    pairs[0::2] = flat.real.ravel()
    pairs[1::2] = flat.imag.ravel()
    Path(path).write_bytes(header + pairs.tobytes())


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
    sizes = tuple(s for s in sizes if s > 0)
    grid = PeriodicGrid(n, sizes)
    payload = len(blob) - _HEADER.size
    if payload != 16 * grid.num_points:
        raise ValueError(
            f"field dump payload is {payload} bytes; the header's grid {sizes} needs {16 * grid.num_points}"
        )
    pairs = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    if not np.isfinite(pairs).all():
        raise ValueError("field dump holds non-finite values")
    values = (pairs[0::2] + 1j * pairs[1::2]).reshape(grid.shape)
    return ScalarField(grid, values)
