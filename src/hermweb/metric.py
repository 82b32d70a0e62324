"""Hermitian metric fields, the Chern-Ricci form and metric-class predicates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PeriodicGrid, ScalarField, _z_symbols, hessian_values, laplacian_symbol
from .forms import FormField, d_max_norm, exterior_d, sort_sign, wedge_power
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


def is_positive_definite(g: np.ndarray) -> bool:
    return minors_positive(smallmat.stack_minors(smallmat.hermitian_stack(g)))


def hermitian_defect(g: np.ndarray) -> float:
    """max |g - g^H| over the field: |g_ij - conj(g_ji)| on the upper entries,
    which |g - g^H| repeats below the diagonal, and 2 |Im g_ii| on it."""
    diag, iu, ju = smallmat._stack_index(g.shape[-1])
    upper = np.abs(g[..., iu, ju] - np.conj(g[..., ju, iu]))
    return float(max(2.0 * np.abs(g[..., diag, diag].imag).max(), upper.max(initial=0.0)))


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
        return smallmat.stack_minors(smallmat.hermitian_stack(self.g))[-1]

    def inverse(self) -> np.ndarray:
        """inv(g) = adj g / det g as a plain matrix field: sum_j inv[i,j] g[j,k] = delta_ik."""
        S = smallmat.hermitian_stack(self.g)
        return smallmat.hermitian_from_stack(smallmat.stack_adjugate(S) / smallmat.stack_minors(S)[-1])

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


def log_det(g: HermitianMetricField) -> np.ndarray:
    # det g > 0: every HermitianMetricField has leading minors above POSITIVITY_FLOOR
    return np.log(g.det())


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


def chern_connection(g: HermitianMetricField) -> np.ndarray:
    """Connection coefficients Gamma[..., k, i, j] = Gamma^k_{ij}
    = g^{k lbar} d g_{j lbar} / dz_i."""
    axes = g.grid.active_axes
    ghat = np.fft.fftn(g.g, axes=axes)
    # dg[..., i, j, l] = d g_{j lbar} / dz_i
    dg = np.fft.ifftn(
        np.stack([s[..., None, None] * ghat for s in _z_symbols(g.grid)], axis=-3), axes=axes
    )
    # g^{k lbar}: sum_l up[k, l] g_{m lbar} = delta_km  =>  up = inv(g^T) = inv(g)^T
    up = np.swapaxes(g.inverse(), -1, -2)
    return np.einsum("...kl,...ijl->...kij", up, dg)


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
    up = np.swapaxes(g.inverse(), -1, -2)
    H = hessian_values(eta2.astype(np.complex128), g.grid)
    lhs = np.einsum("...ij,...ij->...", up, H)

    gamma = chern_connection(g)
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


def _del_norm(a: FormField) -> float:
    """Max-norm of del a; on a = dbar b it is the max-norm of del dbar b."""
    return exterior_d(a)[0].max_norm()


def _sg_defect(target: FormField) -> float:
    """Least-squares defect of solving del beta = target = dbar(omega^{n-1})
    in Fourier space.

    del sends the target's coefficient t_m on dz^{I_m} dzbar^{1..n}, I_m =
    (1..n) without m, to top degree with the symbol sigma_m = +-s_m.  At k != 0
    the del symbols form an exact (Koszul) complex, so the residual is the
    projection conj(sigma) (sigma . t^) / |sigma|^2 of t^; at k = 0 it is t^.
    """
    grid = target.grid
    n = grid.n
    full = tuple(range(n))
    t_keys = [full[:m] + full[m + 1:] for m in range(n)]
    syms = _z_symbols(grid)
    sigma = np.stack(
        [np.broadcast_to(sort_sign((m,) + I)[1] * syms[m], grid.shape) for m, I in enumerate(t_keys)]
    )
    axes = [a + 1 for a in grid.active_axes]
    that = np.fft.fftn(np.stack([target.coefficient(I, full) for I in t_keys]), axes=axes)
    norm2 = -laplacian_symbol(grid)  # |sigma|^2, zero only at k = 0
    proj = np.sum(sigma * that, axis=0) / np.where(norm2 > 0, norm2, 1.0)
    res_hat = np.where(norm2 > 0, np.conj(sigma) * proj, that)
    return float(np.max(np.abs(np.fft.ifftn(res_hat, axes=axes))))


def classify(g: HermitianMetricField, tol: float) -> ClassReport:
    """Kahler / balanced / Gauduchon / strongly Gauduchon / astheno flags.

    exterior_d of omega and of omega^{n-1} (the same form for n = 2) is taken
    once and shared by the residuals."""
    if not (np.isfinite(tol) and tol > 0):
        raise MetricError(f"tolerance must be finite and positive, got {tol}")
    n = g.n
    omega = g.fundamental_form()
    d_omega = exterior_d(omega)
    d_pow = exterior_d(wedge_power(omega, n - 1)) if n == 3 else d_omega
    kahler, balanced = (max(part.max_norm() for part in d) for d in (d_omega, d_pow))
    gauduchon = _del_norm(d_pow[1])
    sg = _sg_defect(d_pow[1])
    # astheno-Kahler: del dbar omega^{n-2} = 0, with omega^{n-2} = omega for n = 3
    astheno = _del_norm(d_omega[1]) if n == 3 else None
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
