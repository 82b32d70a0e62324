"""Periodic grids on the torus R^{2n}/Z^{2n} and spectral scalar calculus.

Coordinates are x_1..x_n, y_1..y_n in [0,1) with z_j = x_j + i y_j.  The
value array axis order is (x_1, ..., x_n, y_1, ..., y_n).  Axes with size 1
are "collapsed": fields do not vary along them and derivatives there are
identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid with unit periods.

    n      complex dimension, 2 <= n <= 3
    sizes  point counts per real axis, ordered (x_1..x_n, y_1..y_n);
           active axes must be even and >= 8, collapsed axes have size 1
    """

    n: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        if not 2 <= self.n <= 3:
            raise GridError(f"complex dimension must be 2 or 3, got {self.n}")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if len(self.sizes) != 2 * self.n:
            raise GridError(
                f"need {2 * self.n} axis sizes for n={self.n}, got {len(self.sizes)}"
            )
        for a, s in enumerate(self.sizes):
            if s == 1:
                continue
            if s < 8 or s % 2 != 0:
                raise GridError(f"active axis {a} size {s} must be even and >= 8")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.sizes

    @property
    def active_axes(self) -> tuple[int, ...]:
        return tuple(a for a, s in enumerate(self.sizes) if s > 1)

    @property
    def num_points(self) -> int:
        return int(np.prod(self.sizes))

    def axis_of(self, part: str, i: int) -> int:
        """Real axis index of x_i or y_i (i is 1-based holomorphic index)."""
        if not 1 <= i <= self.n:
            raise GridError(f"holomorphic index {i} out of range 1..{self.n}")
        return i - 1 if part == "x" else self.n + i - 1

    def coordinate(self, axis: int) -> np.ndarray:
        """Coordinate values along a real axis, broadcast to grid rank."""
        N = self.sizes[axis]
        c = np.arange(N) / N
        shape = [1] * (2 * self.n)
        shape[axis] = N
        return c.reshape(shape)

    def coordinates(self) -> dict[str, np.ndarray]:
        """All coordinates keyed 'x1'..'xn', 'y1'..'yn' (broadcastable)."""
        out = {}
        for i in range(1, self.n + 1):
            out[f"x{i}"] = self.coordinate(self.axis_of("x", i))
            out[f"y{i}"] = self.coordinate(self.axis_of("y", i))
        return out

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Integer Fourier wavenumbers along a real axis (broadcastable)."""
        N = self.sizes[axis]
        k = np.fft.fftfreq(N, d=1.0 / N)
        shape = [1] * (2 * self.n)
        shape[axis] = N
        return k.reshape(shape)


@dataclass(frozen=True)
class ScalarField:
    """Complex-valued field sampled on a PeriodicGrid."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            raise GridError(f"value shape {v.shape} != grid shape {self.grid.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def is_real(self) -> bool:
        return bool(np.max(np.abs(self.values.imag)) <= 1e-12 * max(1.0, np.max(np.abs(self.values))))


def constant_field(grid: PeriodicGrid, value: complex) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, value, dtype=np.complex128))


def from_function(grid: PeriodicGrid, fn) -> ScalarField:
    """Sample fn(**coords) on the grid; fn receives broadcastable arrays."""
    vals = np.broadcast_to(fn(**grid.coordinates()), grid.shape)
    return ScalarField(grid, np.array(vals, dtype=np.complex128))


def _deriv_axis(values: np.ndarray, grid: PeriodicGrid, axis: int) -> np.ndarray:
    if grid.sizes[axis] == 1:
        return np.zeros_like(values)
    k = grid.wavenumbers(axis)
    return np.fft.ifft(TWO_PI * 1j * k * np.fft.fft(values, axis=axis), axis=axis)


def partial_z_values(values: np.ndarray, grid: PeriodicGrid, i: int) -> np.ndarray:
    """d/dz_i = (d/dx_i - i d/dy_i)/2, spectral, on a raw value array."""
    dx = _deriv_axis(values, grid, grid.axis_of("x", i))
    dy = _deriv_axis(values, grid, grid.axis_of("y", i))
    return 0.5 * (dx - 1j * dy)


def partial_zbar_values(values: np.ndarray, grid: PeriodicGrid, i: int) -> np.ndarray:
    """d/dzbar_i = (d/dx_i + i d/dy_i)/2, spectral, on a raw value array."""
    dx = _deriv_axis(values, grid, grid.axis_of("x", i))
    dy = _deriv_axis(values, grid, grid.axis_of("y", i))
    return 0.5 * (dx + 1j * dy)


def partial_z(f: ScalarField, i: int) -> ScalarField:
    """Holomorphic derivative d f / dz_i (i is 1-based, i <= n)."""
    return ScalarField(f.grid, partial_z_values(f.values, f.grid, i))


def partial_zbar(f: ScalarField, i: int) -> ScalarField:
    """Antiholomorphic derivative d f / dzbar_i (1-based, i <= n)."""
    return ScalarField(f.grid, partial_zbar_values(f.values, f.grid, i))


def mean(f: ScalarField) -> complex:
    """Arithmetic average over grid points (= torus integral, unit volume)."""
    return complex(np.mean(f.values))


@lru_cache(maxsize=32)
def _z_symbols(grid: PeriodicGrid) -> tuple[np.ndarray, ...]:
    """Fourier multipliers of d/dz_i, index i-1, broadcastable to grid."""
    syms = []
    for i in range(1, grid.n + 1):
        kx = grid.wavenumbers(grid.axis_of("x", i))
        ky = grid.wavenumbers(grid.axis_of("y", i))
        syms.append(np.pi * (1j * kx + ky))
    return tuple(syms)


@lru_cache(maxsize=32)
def _hessian_multipliers(grid: PeriodicGrid) -> np.ndarray:
    """Multipliers of d^2/dz_i dzbar_j stacked as [i * n + j, *grid.shape]."""
    syms = _z_symbols(grid)
    # d/dzbar_j multiplier is -conj of the d/dz_j one
    mult = np.stack(
        [np.broadcast_to(-si * np.conj(sj), grid.shape) for si in syms for sj in syms]
    )
    mult.setflags(write=False)
    return mult


@lru_cache(maxsize=32)
def laplacian_symbol(grid: PeriodicGrid) -> np.ndarray:
    """Fourier symbol of the flat complex Laplacian sum_i d^2 / dz_i dzbar_i."""
    syms = _z_symbols(grid)
    out = np.zeros(grid.shape)
    for s in syms:
        out = out - np.broadcast_to(np.abs(s) ** 2, grid.shape)
    out.setflags(write=False)
    return out


def hessian_from_spectrum(fhat: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Complex Hessian H[..., i, j] = d^2 f / dz_i dzbar_j of the field whose
    FFT over the active axes is fhat: one inverse FFT batched over the n^2
    entries."""
    n = grid.n
    axes = grid.active_axes
    H = _hessian_multipliers(grid) * fhat
    # in place: a fresh n^2-field output costs more than the transform on 16^3
    np.fft.ifftn(H, axes=[a + 1 for a in axes], out=H)
    return np.moveaxis(H, 0, -1).reshape(grid.shape + (n, n))


def hessian_values(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Complex Hessian H[..., i, j] = d^2 f / dz_i dzbar_j, spectral."""
    return hessian_from_spectrum(np.fft.fftn(values, axes=grid.active_axes), grid)
