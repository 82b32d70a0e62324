"""Periodic grids on the torus R^{2n}/Z^{2n} and spectral scalar calculus.

Coordinates are x_1..x_n, y_1..y_n in [0,1) with z_j = x_j + i y_j.  The
value array axis order is (x_1, ..., x_n, y_1, ..., y_n).  Axes with size 1
are "collapsed": fields do not vary along them and derivatives there are
identically zero.

The form layer's complex derivatives (hessian_values, for ddbar, and
exterior_d) are ifftn(symbol * fftn(f)) over the active axes, with the
multipliers of _z_symbols alone: s_i for d/dz_i and -conj(s_i) for
d/dzbar_i, Nyquist bins included.  Real fields that stay real go through one
real transform pair instead, rfft_active/irfft_active: numpy's own 1-D
rfft/fft and ifft/irfft calls in rfftn's and irfftn's order, so the results
are theirs bit for bit, without their per-call argument handling.  The
Hermitian part of the complex Hessian of a real field
(hermitian_hessian_stack), which the solvers, the flow and ricci_tensor use,
is irfft_active(symbol * rfft_active(f)), with the symbols of its n real
diagonal entries and of the real and imaginary parts of its n(n-1)/2 upper
entries: a real stack in the layout of smallmat, never a complex field.
The flat Laplacian's symbol (laplacian_symbol) and its inverse are tables
on that half spectrum, and one cached table serves the Newton solvers
(_laplacian_solve_multipliers): the inverse symbol over the Hessian
multipliers divided by the symbol, on the rows that are not identically
zero.  The metric-class residuals of metric.classify are complex fields
linear in a Hermitian field: their spectra at k and at -k come from the
half spectra of its real stack, with the symbols at -k of _signed_z_symbols,
and their real and imaginary parts go through irfft_active, never fftn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .smallmat import _stack_index


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
    """Complex-valued field sampled on a PeriodicGrid: GridError unless its
    values have the grid's shape and are finite."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            raise GridError(f"value shape {v.shape} != grid shape {self.grid.shape}")
        if not np.isfinite(v).all():
            at = tuple(int(i) for i in np.argwhere(~np.isfinite(v))[0])
            raise GridError(f"field value {v[at]} at index {at} is not finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def constant_field(grid: PeriodicGrid, value: complex) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, value, dtype=np.complex128))


def from_function(grid: PeriodicGrid, fn) -> ScalarField:
    """Sample fn(**coords) on the grid; fn receives broadcastable arrays."""
    return ScalarField(grid, np.broadcast_to(fn(**grid.coordinates()), grid.shape))


@lru_cache(maxsize=32)
def _z_symbols(grid: PeriodicGrid) -> tuple[np.ndarray, ...]:
    """Fourier multipliers of d/dz_i = (d/dx_i - i d/dy_i)/2, index i-1,
    broadcastable to grid; d/dzbar_i has -conj of them."""
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
    """Fourier symbol -sum_i |s_i|^2 of the flat complex Laplacian
    sum_i d^2 / dz_i dzbar_i on the rfft_active half spectrum."""
    out = np.zeros(grid.shape)
    for s in _z_symbols(grid):
        out = out - np.broadcast_to(np.abs(s) ** 2, grid.shape)
    out = np.ascontiguousarray(out[_half_spectrum(grid)])
    out.setflags(write=False)
    return out


def hessian_values(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """The form layer's complex Hessian H[..., i, j] = d^2 f / dz_i dzbar_j:
    one forward FFT and one inverse FFT batched over the n^2 entries."""
    n = grid.n
    axes = grid.active_axes
    H = _hessian_multipliers(grid) * np.fft.fftn(values, axes=axes)
    # in place: a fresh n^2-field output costs more than the transform on 16^3
    np.fft.ifftn(H, axes=[a + 1 for a in axes], out=H)
    return np.moveaxis(H, 0, -1).reshape(grid.shape + (n, n))


def _reflect(a: np.ndarray, axes) -> np.ndarray:
    """a at the reflected wavenumbers: index k -> -k mod N along each axis."""
    for ax in axes:
        a = np.roll(np.flip(a, ax), 1, ax)
    return a


def _half_spectrum(grid: PeriodicGrid) -> tuple:
    """Index of the rfft_active half spectrum: bins 0..N/2 of the last active
    axis (the whole array on a grid without active axes)."""
    idx = [slice(None)] * len(grid.sizes)
    if grid.active_axes:
        last = grid.active_axes[-1]
        idx[last] = slice(grid.sizes[last] // 2 + 1)
    return tuple(idx)


@lru_cache(maxsize=64)
def _transform_axes(grid: PeriodicGrid, offset: int) -> tuple[tuple[int, int], ...]:
    """(array axis, size) of each active axis, behind `offset` leading axes."""
    return tuple((a + offset, grid.sizes[a]) for a in grid.active_axes)


def rfft_active(values: np.ndarray, grid: PeriodicGrid, offset: int = 0) -> np.ndarray:
    """np.fft.rfftn of a real array over the active axes of grid, which sit
    behind `offset` leading stack axes: rfft on the last active axis, then fft
    over the others from last to first.  With no active axis, the values."""
    axes = _transform_axes(grid, offset)
    if not axes:
        return values.astype(np.complex128)
    axis, size = axes[-1]
    out = np.fft.rfft(values, size, axis)
    for axis, size in axes[-2::-1]:
        out = np.fft.fft(out, size, axis)
    return out


def irfft_active(spectrum: np.ndarray, grid: PeriodicGrid, offset: int = 0) -> np.ndarray:
    """The inverse of rfft_active, np.fft.irfftn with the active sizes: ifft
    over the active axes but the last from first to last, then irfft."""
    axes = _transform_axes(grid, offset)
    if not axes:
        return spectrum.real.copy()
    for axis, size in axes[:-1]:
        spectrum = np.fft.ifft(spectrum, size, axis)
    axis, size = axes[-1]
    return np.fft.irfft(spectrum, size, axis)


@lru_cache(maxsize=32)
def _signed_z_symbols(grid: PeriodicGrid) -> np.ndarray:
    """_z_symbols at k and at -k on the rfft_active half spectrum, stacked
    [i - 1, 0 or 1, *half spectrum].  At a Nyquist bin s_i(-k) is not
    -s_i(k), so the second row reflects the first, not negates it."""
    s = np.stack([np.broadcast_to(si, grid.shape) for si in _z_symbols(grid)])
    pm = np.stack([s, _reflect(s, [a + 1 for a in grid.active_axes])], axis=1)
    pm = np.ascontiguousarray(pm[(slice(None), slice(None)) + _half_spectrum(grid)])
    pm.setflags(write=False)
    return pm


@lru_cache(maxsize=32)
def _hermitian_hessian_multipliers(grid: PeriodicGrid) -> np.ndarray:
    """Half-spectrum multipliers of the stack of hermitian_hessian_stack,
    from the symbols at k and at -k (_signed_z_symbols)."""
    n = grid.n
    s = _signed_z_symbols(grid)
    # m_ij = -s_i conj(s_j), the multiplier of d^2/dz_i dzbar_j, at k and at -k
    m = -s[:, None] * np.conj(s[None])
    # (H + H^H)_ij / 2 of a real field has the symbol h_ij = (m_ij(k) + conj m_ji(-k)) / 2,
    # which differs from m_ij only at Nyquist bins; at k and at -k
    h = np.conj(np.swapaxes(m, 0, 1)[:, :, ::-1])
    h += m
    h *= 0.5
    del m  # before the copies below: a third less peak memory on 16^3
    d, iu, ju = _stack_index(n)
    h_k, h_neg = h[iu, ju, 0], np.conj(h[iu, ju, 1])
    # the Hermitian-even parts, whose inverse transforms are the real fields
    # H_ii, Re H_ij and Im H_ij
    mult = np.concatenate([h[d, d, 0], 0.5 * (h_k + h_neg), -0.5j * (h_k - h_neg)])
    mult.setflags(write=False)
    return mult


@lru_cache(maxsize=32)
def _inverse_laplacian_symbol(grid: PeriodicGrid) -> np.ndarray:
    """1 / laplacian_symbol on the rfft_active half spectrum, 0 at the mean."""
    sym = laplacian_symbol(grid)
    with np.errstate(divide="ignore"):
        inv = np.where(sym != 0.0, 1.0 / sym, 0.0)
    inv.setflags(write=False)
    return inv


@lru_cache(maxsize=32)
def _laplacian_solve_multipliers(grid: PeriodicGrid) -> tuple[np.ndarray, np.ndarray]:
    """(rows, Q): the rows of the hermitian_hessian_stack that are not
    identically zero on grid, and the half-spectrum multipliers Q whose
    irfft_active(Q * fhat, grid, 1) is Lap^{-1} f, of mean zero, followed by
    those rows of the stack of Hess Lap^{-1} f.  Q[0] is
    _inverse_laplacian_symbol and Q[1:], the multipliers of those rows
    times it, is the P of the right-preconditioned operator.  Only x axes
    active zeroes the Im rows; x_1 and y_2 alone zero the Re row of n = 2."""
    mult = _hermitian_hessian_multipliers(grid)
    rows = np.flatnonzero(mult.reshape(len(mult), -1).any(axis=1))
    inv = _inverse_laplacian_symbol(grid)
    Q = np.concatenate([inv[None], mult[rows] * inv])
    for a in (rows, Q):
        a.setflags(write=False)
    return rows, Q


def hessian_stack_from_spectrum(fhat: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """hermitian_hessian_stack of the real field whose rfft_active half
    spectrum is fhat: one batched irfft_active."""
    return irfft_active(_hermitian_hessian_multipliers(grid) * fhat, grid, 1)


def hermitian_hessian_stack(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """The Hermitian part H = (Hess f + Hess f^H)/2 of the complex Hessian of a
    real field f as n^2 real fields, stacked on the first axis:
        H_ii (i < n), Re H_ij (i < j), Im H_ij (i < j),
    the pairs i < j in np.triu_indices order.  One rfft_active and one
    irfft_active batched over the stack."""
    return hessian_stack_from_spectrum(rfft_active(values, grid), grid)
