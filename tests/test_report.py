import struct

import numpy as np
import pytest

from hermweb.grid import PeriodicGrid
from hermweb.report import (
    MAGIC,
    dump_field,
    format_value,
    load_field,
    render_report,
    sha256_digest,
    write_csv,
)


def test_format_value():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(None) == "none"
    assert format_value(np.bool_(True)) == "true"
    assert format_value(0.000123456789012345) == "0.000123456789012"  # 12 significant digits
    assert format_value(np.float64(2.5)) == "2.5"
    assert format_value(1 + 2j) == "1+2i"
    assert format_value(3) == "3"
    assert format_value("abc") == "abc"


def test_render_report_nesting():
    text = render_report({"a": 1, "b": {"c": True, "d": [1.0, 2.0]}})
    lines = text.splitlines()
    assert lines[0] == "hermweb-report"
    assert "  a: 1" in lines
    assert "  b:" in lines
    assert "    c: true" in lines
    assert any("1" in ln and "2" in ln for ln in lines if "d" in ln)
    assert text.endswith("\n")


def test_render_report_deterministic():
    data = {"x": 1.5, "y": {"z": False}}
    assert render_report(data) == render_report(data)


def test_write_csv(tmp_path):
    path = tmp_path / "h.csv"
    write_csv(path, ["iteration", "residual"], [(0, 0.5), (1, 1e-12)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,residual"
    assert lines[1].startswith("0,")
    assert len(lines) == 3


def test_field_dump_round_trip(tmp_path):
    grid = PeriodicGrid(2, (8, 1, 16, 1))
    rng = np.random.default_rng(0)
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    path = tmp_path / "f.fld"
    dump_field(path, grid, vals)
    back = load_field(path)
    assert back.grid == grid
    assert np.array_equal(back.values, vals)


def interleaved(values) -> bytes:
    """The payload as each point's little-endian (re, im) doubles, in C order."""
    out = b""
    for v in np.asarray(values, dtype=complex).ravel():
        out += struct.pack("<dd", v.real, v.imag)
    return out


@pytest.mark.parametrize("case", ["signed_zeros", "broadcast"])
def test_field_dump_payload_is_the_le_re_im_interleave(case, tmp_path):
    # dump_field writes the <c16 bytes of its values broadcast to the grid;
    # they are the explicit (re, im) pairs, and load_field reads them back
    # bit for bit
    grid = PeriodicGrid(2, (8, 1, 16, 1))
    rng = np.random.default_rng(1)
    if case == "signed_zeros":
        vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        vals.imag[::2] = -0.0
        vals.real[1, 0, :4, 0] = -0.0
        want = vals
    else:
        # a real array of a data grid whose first axis is collapsed
        vals = rng.normal(size=(1, 1, 16, 1))
        want = np.broadcast_to(vals, grid.shape)
    path = tmp_path / "f.fld"
    dump_field(path, grid, vals)
    blob = path.read_bytes()
    assert blob[32:] == interleaved(want)
    back = load_field(path).values
    assert back.shape == grid.shape
    assert np.array_equal(back.real.view(np.int64), np.real(want).astype(float).view(np.int64))
    assert np.array_equal(back.imag.view(np.int64), np.imag(want).astype(float).view(np.int64))


def test_field_dump_header_layout(tmp_path):
    grid = PeriodicGrid(2, (8, 1, 8, 1))
    path = tmp_path / "f.fld"
    dump_field(path, grid, np.zeros(grid.shape))
    raw = path.read_bytes()
    assert len(raw) == 32 + 16 * grid.num_points  # header + re/im doubles
    magic, version, n, *sizes = struct.unpack("<8sII6Hxxxx", raw[:32])
    assert magic == MAGIC
    assert n == 2
    assert tuple(sizes[:4]) == (8, 1, 8, 1)


def test_load_field_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fld"
    path.write_bytes(b"NOTAFLD\x00" + b"\x00" * 100)
    with pytest.raises(ValueError):
        load_field(path)


def test_load_field_checks_payload_against_header(tmp_path):
    grid = PeriodicGrid(2, (8, 1, 8, 1))
    path = tmp_path / "f.fld"
    dump_field(path, grid, np.ones(grid.shape))
    raw = path.read_bytes()
    for blob, message in [
        (raw[:-16], "payload is 1008 bytes"),
        (raw + b"\x00" * 8, "payload is 1032 bytes"),
        (raw[:20], "shorter than its header"),
    ]:
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=message):
            load_field(path)


def test_load_field_rejects_non_finite_values(tmp_path):
    grid = PeriodicGrid(2, (8, 1, 8, 1))
    path = tmp_path / "f.fld"
    vals = np.ones(grid.shape, dtype=np.complex128)
    # write a marker, then put a NaN in its place in the file
    marker = 12345.0
    vals[2, 0, 3, 0] = complex(1.0, marker)
    dump_field(path, grid, vals)
    blob = path.read_bytes()
    assert blob.count(np.float64(marker).astype("<f8").tobytes()) == 1
    path.write_bytes(blob.replace(np.float64(marker).astype("<f8").tobytes(), np.float64(np.nan).astype("<f8").tobytes()))
    with pytest.raises(ValueError, match="non-finite"):
        load_field(path)


def test_sha256_digest_format():
    d = sha256_digest(b"hello")
    assert d.startswith("sha256:")
    assert len(d) == 7 + 64
    assert d == sha256_digest(b"hello")
