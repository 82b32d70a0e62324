"""Differential (p,q)-forms on periodic grids.

A FormField stores coefficients on strictly increasing multi-indices:
    a = sum_{I,J} c_{IJ} dz^I wedge dzbar^J,
with all dz factors written before all dzbar factors.  Multi-indices are
0-based internally.  Sign conventions are fixed by this storage order and
validated against a brute-force permutation oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import PeriodicGrid, ScalarField, _z_symbols, hessian_values

REAL_TOL = 1e-12  # of FormField.is_real, relative to max(1, max-norm)


class FormError(ValueError):
    pass


def sort_sign(idx: tuple[int, ...]):
    """Sort a tuple of indices: (sorted_tuple, parity sign of the sorting
    permutation), or (None, 0) when an index repeats.

    The one parity routine of the package; every wedge sign comes from it.
    """
    if len(set(idx)) != len(idx):
        return None, 0
    inversions = sum(a > b for pos, a in enumerate(idx) for b in idx[pos + 1:])
    return tuple(sorted(idx)), -1 if inversions % 2 else 1


@dataclass(frozen=True)
class FormField:
    """(p,q)-form with complex coefficient arrays per multi-index pair."""

    grid: PeriodicGrid
    p: int
    q: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.grid.n
        if not (0 <= self.p <= n and 0 <= self.q <= n):
            raise FormError(f"bidegree ({self.p},{self.q}) out of range for n={n}")
        clean = {}
        for (I, J), v in self.coeffs.items():
            I, J = tuple(I), tuple(J)
            if len(I) != self.p or len(J) != self.q:
                raise FormError(f"key ({I},{J}) does not match bidegree ({self.p},{self.q})")
            if list(I) != sorted(set(I)) or list(J) != sorted(set(J)):
                raise FormError(f"multi-indices must be strictly increasing: ({I},{J})")
            if any(i >= n for i in I + J):
                raise FormError(f"index out of range in ({I},{J})")
            arr = np.asarray(v, dtype=np.complex128)
            arr = np.ascontiguousarray(np.broadcast_to(arr, self.grid.shape))
            arr.setflags(write=False)
            clean[(I, J)] = arr
        object.__setattr__(self, "coeffs", clean)

    def coefficient(self, I, J) -> np.ndarray:
        """Coefficient on dz^I wedge dzbar^J; I, J need not be sorted."""
        sI, sgI = sort_sign(tuple(I))
        sJ, sgJ = sort_sign(tuple(J))
        if sI is None or sJ is None:
            return np.zeros(self.grid.shape, dtype=np.complex128)
        arr = self.coeffs.get((sI, sJ))
        if arr is None:
            return np.zeros(self.grid.shape, dtype=np.complex128)
        return sgI * sgJ * arr

    def max_norm(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(float(np.max(np.abs(v))) for v in self.coeffs.values())

    def __add__(self, other: "FormField") -> "FormField":
        if (self.p, self.q) != (other.p, other.q) or self.grid != other.grid:
            raise FormError("can only add forms of matching bidegree on one grid")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return FormField(self.grid, self.p, self.q, out)

    def __sub__(self, other: "FormField") -> "FormField":
        return self + other.scaled(-1.0)

    def scaled(self, c: complex) -> "FormField":
        return FormField(self.grid, self.p, self.q, {k: c * v for k, v in self.coeffs.items()})

    def conjugated(self) -> "FormField":
        """Complex conjugate form (a (q,p)-form)."""
        out = {}
        # conj(dz^I dzbar^J) = dzbar^I dz^J = (-1)^{pq} dz^J dzbar^I
        sgn = -1.0 if (self.p * self.q) % 2 else 1.0
        for (I, J), v in self.coeffs.items():
            key = (J, I)
            out[key] = out.get(key, 0) + sgn * np.conj(v)
        return FormField(self.grid, self.q, self.p, out)

    def is_real(self) -> bool:
        scale = max(1.0, self.max_norm())
        return (self - self.conjugated()).max_norm() <= REAL_TOL * scale


def zero_form(grid: PeriodicGrid, p: int, q: int) -> FormField:
    return FormField(grid, p, q, {})


def wedge(a: FormField, b: FormField) -> FormField:
    """Exterior product; graded-commutative in the total degree."""
    if a.grid != b.grid:
        raise FormError("wedge requires a common grid")
    n = a.grid.n
    p, q = a.p + b.p, a.q + b.q
    if p > n or q > n:
        raise FormError(f"wedge degree overflow: ({p},{q}) exceeds n={n}")
    out: dict = {}
    for (Ia, Ja), va in a.coeffs.items():
        for (Ib, Jb), vb in b.coeffs.items():
            I, sI = sort_sign(Ia + Ib)
            if I is None:
                continue
            J, sJ = sort_sign(Ja + Jb)
            if J is None:
                continue
            # moving dz^{Ib} (degree p_b) left past dzbar^{Ja} (degree q_a)
            cross = -1.0 if (len(Ja) * len(Ib)) % 2 else 1.0
            term = (sI * sJ * cross) * (va * vb)
            key = (I, J)
            out[key] = out[key] + term if key in out else term
    return FormField(a.grid, p, q, out)


def wedge_power(a: FormField, k: int) -> FormField:
    if k < 1:
        raise FormError("wedge_power needs k >= 1")
    out = a
    for _ in range(k - 1):
        out = wedge(out, a)
    return out


def ddbar(f: ScalarField) -> FormField:
    """sqrt(-1) del dbar f as a (1,1)-form; real when f is real."""
    H = hessian_values(f.values, f.grid)
    n = f.grid.n
    coeffs = {((i,), (j,)): 1j * H[..., i, j] for i in range(n) for j in range(n)}
    return FormField(f.grid, 1, 1, coeffs)


def exterior_d(a: FormField) -> tuple[FormField, FormField]:
    """(del a, dbar a); d = del + dbar and d of d vanishes spectrally.

    One FFT batched over a's coefficients, signed sums of the _z_symbols
    multipliers times those spectra, one inverse FFT batched over the sums."""
    grid, n = a.grid, a.grid.n
    syms = _z_symbols(grid)
    cross = -1.0 if a.p % 2 else 1.0  # dzbar_k crosses the p dz factors first
    del_terms: dict = {}
    dbar_terms: dict = {}
    for c, (I, J) in enumerate(a.coeffs):
        for k in range(n):
            In, sI = sort_sign((k,) + I)
            if In is not None:
                del_terms.setdefault((In, J), []).append((c, sI * syms[k]))
            Jn, sJ = sort_sign((k,) + J)
            if Jn is not None:
                dbar_terms.setdefault((I, Jn), []).append((c, -cross * sJ * np.conj(syms[k])))
    sums = list(del_terms.values()) + list(dbar_terms.values())
    spectra = np.empty((len(sums),) + grid.shape, dtype=np.complex128)
    if sums:
        axes = [ax + 1 for ax in grid.active_axes]
        fhat = np.fft.fftn(np.stack(list(a.coeffs.values())), axes=axes)
        for r, terms in enumerate(sums):
            spectra[r] = sum(m * fhat[c] for c, m in terms)
        np.fft.ifftn(spectra, axes=axes, out=spectra)
    del_c = dict(zip(del_terms, spectra))
    dbar_c = dict(zip(dbar_terms, spectra[len(del_terms):]))
    del_a = FormField(grid, a.p + 1, a.q, del_c) if a.p + 1 <= n else zero_form(grid, a.p, a.q)
    dbar_a = FormField(grid, a.p, a.q + 1, dbar_c) if a.q + 1 <= n else zero_form(grid, a.p, a.q)
    return del_a, dbar_a


def d_max_norm(a: FormField) -> float:
    """Max-norm of d a = del a + dbar a (parts live in different bidegrees)."""
    da, dba = exterior_d(a)
    return max(da.max_norm(), dba.max_norm())
