"""Hermitian metric fields, the Chern-Ricci form and metric-class predicates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    PeriodicGrid,
    ScalarField,
    hessian_values,
    mean,
    partial_z_values,
    _z_symbols,
)
from .forms import FormField, basis_keys, d_max_norm, exterior_d, insert_sign, wedge_power
from . import smallmat

POSITIVITY_FLOOR = 1e-12
HERMITIAN_TOL = 1e-10  # relative to max(1, max |g|)


class MetricError(ValueError):
    pass


def is_positive_definite(g: np.ndarray, floor: float = POSITIVITY_FLOOR) -> bool:
    return all(np.min(m) > floor for m in smallmat.leading_minors(g))


def hermitian_defect(g: np.ndarray) -> float:
    """max |g - g^H| over the field."""
    return float(np.max(np.abs(g - np.conj(np.swapaxes(g, -1, -2)))))


@dataclass(frozen=True)
class HermitianMetricField:
    """Coefficient field g[..., i, j] = g_{i jbar}, Hermitian positive definite."""

    grid: PeriodicGrid
    g: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.g, dtype=np.complex128)
        n = self.grid.n
        want = self.grid.shape + (n, n)
        if arr.shape != want:
            raise MetricError(f"metric shape {arr.shape} != {want}")
        finite = np.isfinite(arr).all(axis=tuple(range(arr.ndim - 2)))
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise MetricError(f"metric entry g[{i + 1}][{j + 1}] is not finite at some grid point")
        defect = hermitian_defect(arr)
        if defect > HERMITIAN_TOL * max(1.0, np.max(np.abs(arr))):
            raise MetricError(f"metric not Hermitian (defect {defect:.3e})")
        if not is_positive_definite(arr):
            raise MetricError("metric not positive definite at some grid point")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "g", arr)

    @classmethod
    def _unchecked(cls, grid: PeriodicGrid, g: np.ndarray) -> "HermitianMetricField":
        """Wrap a complex128 field the caller has just shown to be Hermitian and
        positive definite, without the re-check or the copy; g becomes read-only.

        Internal to the solvers and the flow: every field arriving from outside
        goes through the public constructor.
        """
        field = object.__new__(cls)
        g.setflags(write=False)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "g", g)
        return field

    @property
    def n(self) -> int:
        return self.grid.n

    def det(self) -> np.ndarray:
        return smallmat.det(self.g)

    def inverse(self) -> np.ndarray:
        """inv(g) as a plain matrix field: sum_j inv[i,j] g[j,k] = delta_ik."""
        return smallmat.inverse(self.g)

    def fundamental_form(self) -> FormField:
        """omega = sqrt(-1) sum g_{i jbar} dz_i wedge dzbar_j."""
        n = self.n
        coeffs = {((i,), (j,)): 1j * self.g[..., i, j] for i in range(n) for j in range(n)}
        return FormField(self.grid, 1, 1, coeffs)


def identity_metric(grid: PeriodicGrid) -> HermitianMetricField:
    n = grid.n
    g = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    for i in range(n):
        g[..., i, i] = 1.0
    return HermitianMetricField(grid, g)


def metric_from_form(omega: FormField) -> HermitianMetricField:
    """Inverse of fundamental_form for a positive real (1,1)-form."""
    if (omega.p, omega.q) != (1, 1):
        raise MetricError("need a (1,1)-form")
    n = omega.grid.n
    g = np.empty(omega.grid.shape + (n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            g[..., i, j] = omega.coefficient((i,), (j,)) / 1j
    g = 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))
    return HermitianMetricField(omega.grid, g)


def log_det(g: HermitianMetricField) -> np.ndarray:
    d = g.det()
    if np.min(d) <= 0:
        raise MetricError("non-positive determinant")
    return np.log(d)


def ricci_tensor(g: HermitianMetricField) -> np.ndarray:
    """R[..., i, j] = R_{i jbar} = - d^2 log det g / dz_i dzbar_j."""
    return -hessian_values(log_det(g).astype(np.complex128), g.grid)


def chern_ricci(g: HermitianMetricField) -> FormField:
    """Chern-Ricci form Ric(omega) = -sqrt(-1) del dbar log det g."""
    R = ricci_tensor(g)
    n = g.n
    coeffs = {((i,), (j,)): 1j * R[..., i, j] for i in range(n) for j in range(n)}
    return FormField(g.grid, 1, 1, coeffs)


def ricci_norm(g: HermitianMetricField) -> float:
    return float(np.max(np.abs(ricci_tensor(g))))


def ricci_potential(g: HermitianMetricField) -> ScalarField:
    """Mean-zero real F with sqrt(-1) del dbar F = Ric(omega) on the torus."""
    L = log_det(g)
    return ScalarField(g.grid, -(L - np.mean(L)).astype(np.complex128))


def conformal_flatten(g: HermitianMetricField) -> HermitianMetricField:
    """Chern-Ricci-flat conformal rescaling exp(F/n) g."""
    F = ricci_potential(g).values.real
    scale = np.exp(F / g.n)
    return HermitianMetricField(g.grid, scale[..., None, None] * g.g)


@dataclass(frozen=True)
class ChernConnectionField:
    """Connection coefficients Gamma[..., k, i, j] = Gamma^k_{ij}."""

    grid: PeriodicGrid
    gamma: np.ndarray


def chern_connection(g: HermitianMetricField) -> ChernConnectionField:
    """Gamma^k_{ij} = g^{k lbar} d g_{j lbar} / dz_i."""
    n = g.n
    dg = np.empty(g.grid.shape + (n, n, n), dtype=np.complex128)  # [i, j, l]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                dg[..., i, j, l] = partial_z_values(g.g[..., j, l], g.grid, i + 1)
    # g^{k lbar}: sum_l up[k, l] g_{m lbar} = delta_km  =>  up = inv(g^T)
    up = smallmat.inverse(np.swapaxes(g.g, -1, -2))
    gamma = np.einsum("...kl,...ijl->...kij", up, dg)
    return ChernConnectionField(g.grid, gamma)


@dataclass(frozen=True)
class ParallelSectionReport:
    """Residual of the Weitzenbock identity for eta = (dz^1...dz^n)^{l}."""

    ell: int
    identity_residual: float
    grad_eta_norm: float


def parallel_section_check(g: HermitianMetricField, ell: int) -> ParallelSectionReport:
    """Check Delta |eta|^2 = |grad eta|^2 + l g^{i jbar} R_{i jbar} |eta|^2.

    eta is the canonical section of K^l on the torus, |eta|^2 = (det g)^{-l};
    grad eta = -l (Gamma^j_{ij} dz^i) tensor eta via the induced connection.
    """
    if ell == 0:
        raise MetricError("ell must be nonzero")
    n = g.n
    eta2 = g.det() ** (-float(ell))
    # g^{i jbar} defined by g^{i jbar} g_{k jbar} = delta_ik
    up = smallmat.inverse(np.swapaxes(g.g, -1, -2))
    H = hessian_values(eta2.astype(np.complex128), g.grid)
    lhs = np.einsum("...ij,...ij->...", up, H)

    gamma = chern_connection(g).gamma
    a = np.einsum("...jij->...i", gamma)  # trace Gamma^j_{ij}, a (1,0)-form
    grad2 = (ell**2) * np.einsum("...ij,...i,...j->...", up, a, np.conj(a)).real * eta2
    R = ricci_tensor(g)
    trR = np.einsum("...ij,...ij->...", up, R)
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

    @property
    def astheno_vacuous(self) -> bool:
        return self.astheno_residual is None

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


def ddbar_of(form: FormField) -> float:
    """Max-norm of del dbar applied to a form."""
    _, dbar = exterior_d(form)
    if dbar.q > form.grid.n:
        return 0.0
    dd, _ = exterior_d(dbar)
    return dd.max_norm()


def _sg_defect(omega_pow: FormField) -> float:
    """Least-squares defect of solving del beta = dbar(omega^{n-1}) in Fourier space."""
    grid = omega_pow.grid
    n = grid.n
    _, target = exterior_d(omega_pow)  # (n-1, n)-form
    t_keys = list(basis_keys(n, n - 1, n))
    b_keys = list(basis_keys(n, n - 2, n))
    axes = grid.active_axes
    that = np.stack(
        [np.fft.fftn(target.coefficient(I, J), axes=axes) for I, J in t_keys], axis=-1
    )  # shape grid + (dimT,)
    syms = _z_symbols(grid)
    sym_grid = [np.broadcast_to(s, grid.shape) for s in syms]
    A = np.zeros(grid.shape + (len(t_keys), len(b_keys)), dtype=np.complex128)
    t_index = {k: r for r, k in enumerate(t_keys)}
    for c, (K, J) in enumerate(b_keys):
        for k in range(n):
            Kn, s = insert_sign(k, K)
            if Kn is None:
                continue
            A[..., t_index[(Kn, J)], c] += s * sym_grid[k]
    beta = np.einsum("...ij,...j->...i", np.linalg.pinv(A), that)
    res_hat = that - np.einsum("...ij,...j->...i", A, beta)
    res_phys = np.fft.ifftn(np.moveaxis(res_hat, -1, 0), axes=[a + 1 for a in axes])
    return float(np.max(np.abs(res_phys)))


def classify(g: HermitianMetricField, tol: float) -> ClassReport:
    """Kahler / balanced / Gauduchon / strongly Gauduchon / astheno flags."""
    if tol <= 0:
        raise MetricError("tolerance must be positive")
    n = g.n
    omega = g.fundamental_form()
    omega_pow = wedge_power(omega, n - 1) if n > 1 else omega
    kahler = d_max_norm(omega)
    balanced = d_max_norm(omega_pow)
    gauduchon = ddbar_of(omega_pow)
    sg = _sg_defect(omega_pow)
    astheno = ddbar_of(wedge_power(omega, n - 2) if n - 2 >= 2 else omega) if n >= 3 else None
    return ClassReport(tol, kahler, balanced, gauduchon, sg, astheno)


def bott_chern_defect(a: FormField, closed_tol: float = 1e-8) -> np.ndarray:
    """Mean coefficient matrix of a closed real (1,1)-form.

    Vanishes exactly when the form is sqrt(-1) del dbar-exact on the torus.
    """
    if (a.p, a.q) != (1, 1):
        raise MetricError("need a (1,1)-form")
    if d_max_norm(a) > closed_tol * max(1.0, a.max_norm()):
        raise MetricError("form is not closed to the requested tolerance")
    n = a.grid.n
    out = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[i, j] = np.mean(a.coefficient((i,), (j,))) / 1j
    return out
