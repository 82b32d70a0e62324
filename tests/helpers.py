"""Shared test oracles and random-field builders.

The oracles here are deliberately independent of the package internals:
the wedge oracle expands products over totally antisymmetric generator
tuples by brute force, and the derivative oracle uses 4th-order centered
finite differences on the periodic grid.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from hermweb.forms import FormField
from hermweb.grid import PeriodicGrid, ScalarField
from hermweb.metric import HermitianMetricField, ricci_tensor


# ---------------------------------------------------------------------------
# Brute-force exterior algebra over 2n anticommuting generators
# (dz^1..dz^n -> 0..n-1, dzbar^1..dzbar^n -> n..2n-1)
# ---------------------------------------------------------------------------

def sort_parity(key):
    """Bubble-sort a generator tuple; return (sign, sorted tuple), sign 0 on repeats."""
    items = list(key)
    if len(set(items)) != len(items):
        return 0, ()
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return sign, tuple(items)


def form_to_generators(f: FormField) -> dict:
    """FormField -> {sorted generator tuple: coefficient array}."""
    n = f.grid.n
    return {
        tuple(I) + tuple(j + n for j in J): np.asarray(c)
        for (I, J), c in f.coeffs.items()
    }


def brute_wedge(a: dict, b: dict) -> dict:
    """Wedge of two generator-keyed forms by brute-force expansion."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            sign, key = sort_parity(ka + kb)
            if sign == 0:
                continue
            term = sign * va * vb
            out[key] = out.get(key, 0) + term
    return {k: v for k, v in out.items() if np.max(np.abs(v)) > 0}


def max_diff_generators(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    diff = 0.0
    for k in keys:
        va = a.get(k, 0.0)
        vb = b.get(k, 0.0)
        diff = max(diff, float(np.max(np.abs(np.asarray(va) - np.asarray(vb)))))
    return diff


# ---------------------------------------------------------------------------
# 4th-order finite-difference derivative oracle on the periodic grid
# ---------------------------------------------------------------------------

_FD1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))


def fd_partial_axis(values: np.ndarray, grid: PeriodicGrid, axis: int) -> np.ndarray:
    """d/d(axis coordinate) by 4th-order centered differences, periodic."""
    N = grid.sizes[axis]
    if N == 1:
        return np.zeros_like(values)
    h = 1.0 / N
    out = np.zeros_like(values, dtype=np.complex128)
    for off, w in _FD1:
        out += w * np.roll(values, -off, axis=axis)
    return out / (12.0 * h)


def fd_partial_z(values: np.ndarray, grid: PeriodicGrid, i: int) -> np.ndarray:
    dx = fd_partial_axis(values, grid, grid.axis_of("x", i))
    dy = fd_partial_axis(values, grid, grid.axis_of("y", i))
    return 0.5 * (dx - 1j * dy)


def fd_partial_zbar(values: np.ndarray, grid: PeriodicGrid, i: int) -> np.ndarray:
    dx = fd_partial_axis(values, grid, grid.axis_of("x", i))
    dy = fd_partial_axis(values, grid, grid.axis_of("y", i))
    return 0.5 * (dx + 1j * dy)


# ---------------------------------------------------------------------------
# Random band-limited fields and metrics
# ---------------------------------------------------------------------------

def random_bandlimited(grid: PeriodicGrid, rng, amp=1.0, kmax=2, terms=5, complex_valued=False):
    """Sum of a few low-frequency plane waves; smooth, exactly periodic."""
    coords = grid.coordinates()
    vals = np.zeros(grid.shape, dtype=np.complex128)
    names = [f"x{i}" for i in range(1, grid.n + 1)] + [f"y{i}" for i in range(1, grid.n + 1)]
    active = {name for name in names if coords[name].size > 1}
    for _ in range(terms):
        phase = np.zeros(grid.shape)
        for name in active:
            k = int(rng.integers(-kmax, kmax + 1))
            phase = phase + 2.0 * np.pi * k * coords[name]
        c = amp * (rng.normal() + (1j * rng.normal() if complex_valued else 0.0))
        vals = vals + c * np.exp(1j * phase)
    if not complex_valued:
        vals = vals.real.astype(np.complex128)
    return vals


def random_metric(grid: PeriodicGrid, rng, amp=0.1, kmax=2) -> HermitianMetricField:
    """Identity plus a small band-limited Hermitian perturbation (stays PD)."""
    n = grid.n
    g = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    for i in range(n):
        g[..., i, i] = 1.0 + random_bandlimited(grid, rng, amp=amp, kmax=kmax).real
        for j in range(i + 1, n):
            off = random_bandlimited(grid, rng, amp=amp / 2, kmax=kmax, complex_valued=True)
            g[..., i, j] = off
            g[..., j, i] = np.conj(off)
    return HermitianMetricField(grid, g)


def bump_metric(grid: PeriodicGrid) -> HermitianMetricField:
    """Diagonal metric with g_11 = 1 + cos(2 pi x2)/2, the rest identity."""
    n = grid.n
    x2 = grid.coordinate(grid.axis_of("x", 2))
    g = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    for i in range(n):
        g[..., i, i] = 1.0
    g[..., 0, 0] = 1.0 + 0.5 * np.cos(2.0 * np.pi * x2)
    return HermitianMetricField(grid, g)


def rk2_flow(g: HermitianMetricField, dt: float):
    """The flow's oracle: explicit midpoint steps of dg/dt = -Ric(g) on the
    metric itself, stable for dt up to 2 / (pi^2 sum of kmax^2).  Yields
    (t, g, Ric g) from t = 0 on, one step at a time."""
    R = ricci_tensor(g)
    for step in count():
        yield step * dt, g, R
        mid = HermitianMetricField(g.grid, g.g - (0.5 * dt) * R)
        g = HermitianMetricField(g.grid, g.g - dt * ricci_tensor(mid))
        R = ricci_tensor(g)


def field(grid: PeriodicGrid, values) -> ScalarField:
    return ScalarField(grid, np.asarray(values, dtype=np.complex128))
