"""Hermitian metric fields, the Chern-Ricci form and metric-class predicates.

A HermitianMetricField is its real stack (smallmat's layout); its complex
field g is assembled from the stack on first read.  Spec metrics are loaded
as stacks (from_stack), and every metric hermweb derives is built from one.
ricci_tensor and ricci_norm read the flow's real Hessian stack of log det g.
classify and solve_ma3's Kahler check build no form: the residuals of the
metric classes are linear in g and in adj g, the matrix of omega^{n-1}, and
come from real transforms of their stacks (_complex_residuals).  The Kahler
check (kahler_excess) is the exact max of classify's Kahler residual, from
one real transform pair of the stack of g.  The forms
(fundamental_form, chern_ricci, bott_chern_defect) remain for callers and
as the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .grid import (
    PeriodicGrid,
    ScalarField,
    _inverse_laplacian_symbol,
    _half_spectrum,
    _signed_z_symbols,
    hermitian_hessian_stack,
    irfft_active,
    rfft_active,
)
from .forms import FormField, d_max_norm, ddbar
from . import smallmat

POSITIVITY_FLOOR = 1e-12
HERMITIAN_TOL = 1e-10  # relative to max(1, max |g|)
CLOSED_TOL = 1e-8  # of bott_chern_defect, relative to max(1, max-norm of the form)


class MetricError(ValueError):
    pass


def minors_positive(minors: list[np.ndarray]) -> bool:
    """Whether every leading principal minor exceeds POSITIVITY_FLOOR at every
    point: Sylvester's test of positive definiteness."""
    return all(m.min() > POSITIVITY_FLOOR for m in minors)


def is_positive_definite(S: np.ndarray) -> bool:
    """Whether the Hermitian field with real stack S is positive definite."""
    return minors_positive(smallmat.stack_minors(S))


def hermitian_defect(g: np.ndarray) -> float:
    """max |g - g^H| over the field: |g_ij - conj(g_ji)| on the upper entries,
    which |g - g^H| repeats below the diagonal, and 2 |Im g_ii| on it."""
    diag, iu, ju = smallmat._stack_index(g.shape[-1])
    upper = np.abs(g[..., iu, ju] - np.conj(g[..., ju, iu]))
    return float(max(2.0 * np.abs(g[..., diag, diag].imag).max(), upper.max(initial=0.0)))


@dataclass(frozen=True, init=False)
class HermitianMetricField:
    """Hermitian positive definite coefficient field g[..., i, j] = g_{i jbar},
    held as its read-only real stack (smallmat's layout).  The complex field g
    is assembled from the stack on first read and kept read-only.

    The constructor HermitianMetricField(grid, g) checks a complex field from
    outside and keeps the stack of its Hermitian part; from_stack checks a
    stack from outside (a spec section's).  Every metric hermweb derives is
    built from its stack by _unchecked."""

    grid: PeriodicGrid
    stack: np.ndarray = field(repr=False)

    def __init__(self, grid: PeriodicGrid, g: np.ndarray):
        object.__setattr__(self, "grid", grid)
        self.__post_init__(g)

    def __post_init__(self, g: np.ndarray):
        arr = np.asarray(g, dtype=np.complex128)
        n = self.grid.n
        want = self.grid.shape + (n, n)
        if arr.shape != want:
            raise MetricError(f"metric shape {arr.shape} != {want}")
        if not np.isfinite(arr).all():
            # only a failed check looks for the entry to name
            finite = np.isfinite(arr).all(axis=tuple(range(arr.ndim - 2)))
            i, j = np.argwhere(~finite)[0]
            raise MetricError(f"metric entry g[{i + 1}][{j + 1}] is not finite at some grid point")
        defect = hermitian_defect(arr)
        if defect > HERMITIAN_TOL * max(1.0, np.max(np.abs(arr))):
            raise MetricError(f"metric not Hermitian (defect {defect:.3e})")
        self._keep_positive(smallmat.hermitian_stack(arr))

    @classmethod
    def from_stack(cls, grid: PeriodicGrid, S: np.ndarray) -> "HermitianMetricField":
        """The metric with real stack S from outside, checked like the
        constructor's field: its dtype and shape, finiteness and positive
        definiteness.  S becomes read-only."""
        want = (grid.n * grid.n,) + grid.shape
        if S.dtype != np.float64 or S.shape != want:
            raise MetricError(f"metric stack of {S.dtype} and shape {S.shape}, need float64 and {want}")
        if not np.isfinite(S).all():
            raise MetricError("metric stack is not finite at some grid point")
        metric = object.__new__(cls)
        object.__setattr__(metric, "grid", grid)
        metric._keep_positive(S)
        return metric

    def _keep_positive(self, S: np.ndarray) -> None:
        if not is_positive_definite(S):
            raise MetricError("metric not positive definite at some grid point")
        S.setflags(write=False)
        object.__setattr__(self, "stack", S)

    @classmethod
    def _unchecked(cls, grid: PeriodicGrid, S: np.ndarray) -> "HermitianMetricField":
        """The metric with real stack S, positive definite by the caller's own
        check or construction, without the constructor's; S becomes
        read-only.  Internal: every metric hermweb derives is built here.
        """
        metric = object.__new__(cls)
        S.setflags(write=False)
        object.__setattr__(metric, "grid", grid)
        object.__setattr__(metric, "stack", S)
        return metric

    @cached_property
    def g(self) -> np.ndarray:
        """The complex field g[..., i, j] = g_{i jbar}, exactly Hermitian:
        assembled from the stack on first read, then the same read-only
        array on every read."""
        g = smallmat.hermitian_from_stack(self.stack)
        g.setflags(write=False)
        return g

    @property
    def n(self) -> int:
        return self.grid.n

    def det(self) -> np.ndarray:
        return smallmat.stack_minors(self.stack)[-1]

    def inverse(self) -> np.ndarray:
        """inv(g) = adj g / det g as a plain matrix field: sum_j inv[i,j] g[j,k] = delta_ik."""
        S = self.stack
        return smallmat.hermitian_from_stack(smallmat.stack_adjugate(S) / smallmat.stack_minors(S)[-1])

    def fundamental_form(self) -> FormField:
        """omega = sqrt(-1) sum g_{i jbar} dz_i wedge dzbar_j."""
        n = self.n
        coeffs = {((i,), (j,)): 1j * self.g[..., i, j] for i in range(n) for j in range(n)}
        return FormField(self.grid, 1, 1, coeffs)


def identity_metric(grid: PeriodicGrid) -> HermitianMetricField:
    """The flat Kahler metric I, from its stack: ones on the n diagonal rows."""
    n = grid.n
    S = np.zeros((n * n,) + grid.shape)
    S[:n] = 1.0
    return HermitianMetricField._unchecked(grid, S)


def log_det(g: HermitianMetricField) -> np.ndarray:
    # det g > 0: every HermitianMetricField has leading minors above POSITIVITY_FLOOR
    return np.log(g.det())


def ricci_tensor(g: HermitianMetricField) -> np.ndarray:
    """R[..., i, j] = R_{i jbar}, the Hermitian part of -d^2 log det g / dz_i dzbar_j."""
    return smallmat.hermitian_from_stack(-hermitian_hessian_stack(log_det(g), g.grid))


def chern_ricci(g: HermitianMetricField) -> FormField:
    """Chern-Ricci form -sqrt(-1) del dbar log det g, by ddbar: closed for exterior_d."""
    return ddbar(ScalarField(g.grid, -log_det(g)))


def ricci_norm(g: HermitianMetricField) -> float:
    return smallmat.stack_max_modulus(hermitian_hessian_stack(log_det(g), g.grid))


def ricci_potential(g: HermitianMetricField) -> ScalarField:
    """Mean-zero real F with sqrt(-1) del dbar F = Ric(omega) on the torus."""
    L = log_det(g)
    return ScalarField(g.grid, -(L - np.mean(L)).astype(np.complex128))


def conformal_flatten(g: HermitianMetricField) -> HermitianMetricField:
    """Chern-Ricci-flat rescaling exp(F/n) g, F = ricci_potential(g);
    scaling can lose positivity."""
    return _conformal_rescaling(g, ricci_potential(g))


def _conformal_rescaling(g: HermitianMetricField, F: ScalarField) -> HermitianMetricField:
    """exp(F/n) g for a real F, checked positive definite."""
    S = np.exp(F.values.real / g.n) * g.stack
    if not is_positive_definite(S):
        raise MetricError("conformal rescaling is not positive definite at some grid point")
    return HermitianMetricField._unchecked(g.grid, S)


@dataclass(frozen=True)
class ParallelSectionReport:
    """Residual of the Weitzenbock identity for eta = (dz^1...dz^n)^{l}."""

    ell: int
    identity_residual: float
    grad_eta_norm: float


def parallel_section_check(g: HermitianMetricField, ell: int) -> ParallelSectionReport:
    """Check Delta |eta|^2 = |grad eta|^2 + l g^{i jbar} R_{i jbar} |eta|^2.

    eta is the canonical section of K^l on the torus, |eta|^2 = (det g)^{-l};
    grad eta = -l (Gamma^j_{ij} dz^i) tensor eta via the induced connection,
    whose trace Gamma^j_{ij} = d log det g / dz_i comes from one real
    transform pair of log det g.
    """
    if ell == 0:
        raise MetricError("ell must be nonzero")
    n, grid = g.n, g.grid
    det = g.det()
    eta2 = det ** (-float(ell))
    # g^{i jbar} defined by g^{i jbar} g_{k jbar} = delta_ik: the transpose of adj g / det g
    up = np.swapaxes(smallmat.hermitian_from_stack(smallmat.stack_adjugate(g.stack) / det), -1, -2)
    H = smallmat.hermitian_from_stack(hermitian_hessian_stack(eta2, grid))
    lhs = np.einsum("...ij,...ij->...", up, H)

    # the real derivatives d/dx_i, then d/dy_i, of log det g, and from them
    # a_i = d log det g / dz_i = (d/dx_i - sqrt(-1) d/dy_i) log det g / 2
    k = np.stack([np.broadcast_to(grid.wavenumbers(axis), grid.shape) for axis in range(2 * n)])
    symbols = 2j * np.pi * k[(slice(None),) + _half_spectrum(grid)]
    d = irfft_active(symbols * rfft_active(np.log(det), grid), grid, 1)
    a = 0.5 * (d[:n] - 1j * d[n:])
    grad2 = (ell**2) * np.einsum("...ij,i...,j...->...", up, a, np.conj(a)).real * eta2
    trR = np.einsum("...ij,...ij->...", up, ricci_tensor(g))
    rhs = grad2 + ell * trR * eta2
    residual = float(np.max(np.abs(lhs - rhs)))
    return ParallelSectionReport(ell, residual, float(np.max(np.sqrt(np.abs(grad2)))))


@dataclass(frozen=True)
class ClassReport:
    """Residual norms and flags for the standard metric classes."""

    tolerance: float
    kahler_residual: float
    balanced_residual: float
    gauduchon_residual: float
    strongly_gauduchon_residual: float
    astheno_residual: float | None  # None marks the vacuous n < 3 case

    @property
    def kahler(self) -> bool:
        return self.kahler_residual <= self.tolerance

    @property
    def balanced(self) -> bool:
        return self.balanced_residual <= self.tolerance

    @property
    def gauduchon(self) -> bool:
        return self.gauduchon_residual <= self.tolerance

    @property
    def strongly_gauduchon(self) -> bool:
        return self.strongly_gauduchon_residual <= self.tolerance

    @property
    def astheno_kahler(self) -> bool:
        return True if self.astheno_residual is None else self.astheno_residual <= self.tolerance

    def as_dict(self) -> dict:
        out = {
            "tolerance": self.tolerance,
            "kahler": {"residual": self.kahler_residual, "flag": self.kahler},
            "balanced": {"residual": self.balanced_residual, "flag": self.balanced},
            "gauduchon": {"residual": self.gauduchon_residual, "flag": self.gauduchon},
            "strongly_gauduchon": {
                "residual": self.strongly_gauduchon_residual,
                "flag": self.strongly_gauduchon,
            },
        }
        if self.astheno_residual is None:
            out["astheno_kahler"] = {"residual": None, "flag": True, "vacuous": True}
        else:
            out["astheno_kahler"] = {"residual": self.astheno_residual, "flag": self.astheno_kahler}
        return out


def _matrix_spectra(R: np.ndarray) -> np.ndarray:
    """The spectra of the entries of a Hermitian field at k and at -k,
    [a, b, 0 or 1, ...], from the rfft_active half spectra R of the rows of
    its real stack.  Entry a b at -k is conj of entry b a at k."""
    n = round(len(R) ** 0.5)
    d, iu, ju = smallmat._stack_index(n)
    k = len(iu)
    G = np.empty((n, n, 2) + R.shape[1:], dtype=np.complex128)
    G[d, d, 0] = R[:n]
    G[iu, ju, 0] = R[n : n + k] + 1j * R[n + k :]
    G[ju, iu, 0] = R[n : n + k] - 1j * R[n + k :]
    G[:, :, 1] = np.conj(np.swapaxes(G[:, :, 0], 0, 1))
    return G


def _complex_residuals(R: np.ndarray, grid: PeriodicGrid, classes: bool) -> list[np.ndarray]:
    """The spectra at k and at -k, [field, 0 or 1, k], of the complex
    residual fields of the metric-class tests, one array per test, from the
    rfft_active half spectra R[row, k] of the stack rows of g (Kahler only)
    or of g and Lambda = adj g, the matrix of omega^{n-1}, with the
    wavenumbers k of the half spectrum flattened.

    With s_i the symbol of d/dz_i, c_i = -conj(s_i) that of d/dzbar_i and
    fac = (n-1)!, the fields are, up to unimodular constants, the
    coefficients of
      Kahler, del omega:          D_ijk = s_i g_jk - s_j g_ik, i < j, every k;
      balanced, del omega^{n-1}:  B_k = fac sum_l s_l Lambda_kl (n = 3: for
                                  n = 2 it is the Kahler test);
      Gauduchon, del dbar omega^{n-1}:  sum_k c_k B_k;
      strongly Gauduchon:         conj(s_m) / |s|^2 times the Gauduchon
                                  spectrum, the least-squares residual of
                                  del beta = dbar omega^{n-1}, the projection
                                  of that target off the image of del;
      astheno-Kahler, del dbar omega (n = 3):  c_l D_ijk - c_k D_ijl, l < k.
    At -k the symbols are reflected and the entries conjugate-transposed.
    """
    n = grid.n
    s = _signed_z_symbols(grid).reshape(n, 2, -1)
    G = _matrix_spectra(R[: n * n])
    pairs = list(combinations(range(n), 2))  # i < j, in the order of np.triu_indices
    D = np.empty((len(pairs),) + G.shape[1:], dtype=G.dtype)  # [i < j, k, ...]
    t = np.empty(G.shape[1:], dtype=G.dtype)
    for D_ij, (i, j) in zip(D, pairs):
        np.multiply(s[i], G[j], out=D_ij)
        np.multiply(s[j], G[i], out=t)
        D_ij -= t
    kahler = D.reshape((-1,) + D.shape[2:])
    if not classes:
        return [kahler]
    c = -np.conj(s)
    B = math.factorial(n - 1) * np.einsum("l...,kl...->k...", s, _matrix_spectra(R[n * n :]))
    gauduchon = np.einsum("k...,k...->...", c, B)[None]
    sg = np.conj(s) * (-_inverse_laplacian_symbol(grid).reshape(-1) * gauduchon)
    if n == 2:
        return [kahler, gauduchon, sg]
    astheno = np.stack([c[l] * D[:, k] - c[k] * D[:, l] for l, k in pairs], axis=1)
    return [kahler, B, gauduchon, sg, astheno.reshape(kahler.shape)]


def _residual_spectra(S: np.ndarray, grid: PeriodicGrid, classes: bool) -> list[np.ndarray]:
    """The spectra X[field, 0 or 1, *half spectrum] of _complex_residuals
    for the metric with real stack S, from one rfft_active batched over the
    stack rows of g (and adj g)."""
    R = rfft_active(np.concatenate([S, smallmat.stack_adjugate(S)]) if classes else S, grid, 1)
    spectra = _complex_residuals(R.reshape(len(R), -1), grid, classes)
    return [X.reshape(X.shape[:2] + R.shape[1:]) for X in spectra]


def _max_moduli(spectra: list[np.ndarray], grid: PeriodicGrid) -> list[float]:
    """Per array X of _residual_spectra, the max-modulus of its residual
    fields, overwriting X: per array one irfft_active batched over twice the
    real and imaginary parts of its fields, whose half spectra are
    X(k) + conj X(-k) and (X(k) - conj X(-k)) / i.  A batch per test stays
    small: on a 2-vCPU host one batch of all 50 rows of n = 3 on 16^3 made
    classify about 50 % slower in the inspect workload's loop."""
    maxima = []
    for X in spectra:
        # in place, as every fresh array of this size costs page faults
        at, neg = X[:, 0], X[:, 1]
        np.conjugate(neg, out=neg)
        at += neg
        neg *= -2.0
        neg += at
        neg *= -1j
        parts = irfft_active(X.reshape((2 * len(X),) + X.shape[2:]), grid, 1).reshape(len(X), 2, -1)
        parts *= parts
        parts[:, 0] += parts[:, 1]
        maxima.append(0.5 * float(np.sqrt(parts[:, 0].max())))
    return maxima


def kahler_excess(S: np.ndarray, grid: PeriodicGrid, tol: float) -> float | None:
    """None if max|d omega| <= tol for the metric with real stack S, read as
    max|del omega| like classify's Kahler residual; otherwise that max.
    The residual fields come from one rfft_active of S and one irfft_active
    of their spectra."""
    (d_omega,) = _max_moduli(_residual_spectra(S, grid, False), grid)
    return d_omega if d_omega > tol else None


def classify(g: HermitianMetricField, tol: float) -> ClassReport:
    """Kahler / balanced / Gauduchon / strongly Gauduchon / astheno flags.

    The residuals are the max-norms of the fields of _complex_residuals, from
    the real stacks of g and adj g: real transforms only, no form.  For a
    real form the dbar parts conjugate the del parts (up to the Nyquist
    modes), so only the del parts are computed.  The stacks hold the
    Hermitian part of g: for a g within HERMITIAN_TOL of Hermitian but not
    exactly Hermitian, the residuals may differ at that level from those of
    exterior_d on fundamental_form()."""
    if not (np.isfinite(tol) and tol > 0):
        raise MetricError(f"tolerance must be finite and positive, got {tol}")
    maxima = _max_moduli(_residual_spectra(g.stack, g.grid, True), g.grid)
    if g.n == 3:
        kahler, balanced, gauduchon, sg, astheno = maxima
    else:
        kahler, gauduchon, sg = maxima
        balanced, astheno = kahler, None
    return ClassReport(tol, kahler, balanced, gauduchon, sg, astheno)


def bott_chern_defect(a: FormField) -> np.ndarray:
    """Mean coefficient matrix of a closed real (1,1)-form.

    Vanishes exactly when the form is sqrt(-1) del dbar-exact on the torus.
    """
    if (a.p, a.q) != (1, 1):
        raise MetricError("need a (1,1)-form")
    if d_max_norm(a) > CLOSED_TOL * max(1.0, a.max_norm()):
        raise MetricError(f"form is not closed to tolerance {CLOSED_TOL:g}")
    n = a.grid.n
    out = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[i, j] = np.mean(a.coefficient((i,), (j,))) / 1j
    return out
