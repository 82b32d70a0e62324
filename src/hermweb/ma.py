"""Elliptic Monge-Ampere solvers producing Chern-Ricci-flat metrics.

solve_ma2 finds (phi, b) with  (omega + i del dbar phi)^n = e^{F+b} omega^n.
solve_ma3 (n = 3, Kahler reference) finds (phi, b) with
    omegat^{n-1} = omega^{n-1} + i del dbar phi wedge omega0^{n-2},
    omegat^n = e^{F+b} omega^n,
recovering omegat through the pointwise Michelsohn (n-1)-root.

Both use damped Newton iterations; the linearized elliptic systems are
solved by preconditioned GMRES with a flat-Laplacian Fourier preconditioner,
with the constant b carried as an extra unknown in a bordered system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from . import smallmat
from .grid import PeriodicGrid, ScalarField, hessian_values, _z_symbols
from .forms import FormField, basis_keys, d_max_norm, wedge, wedge_power, zero_form, merge_sign
from .metric import HermitianMetricField, MetricError, is_positive_definite

FACTORIAL = {1: 1, 2: 2, 3: 6}


class SolverError(RuntimeError):
    """Raised on positivity loss or non-convergence; carries the last iterate."""

    def __init__(self, message: str, history: list[float], phi: np.ndarray | None = None, b: float = 0.0):
        super().__init__(message)
        self.history = history
        self.phi = phi
        self.b = b


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-11
    max_iterations: int = 40
    min_step: float = 1e-6
    armijo: float = 1e-4
    linear_rtol: float = 1e-10
    linear_maxiter: int = 400

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1 or self.linear_maxiter < 1:
            raise ValueError("iteration caps must be >= 1")


@dataclass(frozen=True)
class MASolution:
    phi: ScalarField
    b: float
    residual_history: list[float]
    metric_out: HermitianMetricField
    trace: list[tuple] = field(default_factory=list)  # (iteration, residual, b, step)

    @property
    def iterations(self) -> int:
        return len(self.residual_history) - 1


# ---------------------------------------------------------------------------
# (n-1, n-1)-form <-> Hermitian matrix correspondence
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _duality_table(n: int) -> dict:
    """For each matrix slot (k, l): the complementary multi-index key of the
    (n-1, n-1) basis and the scale s with
        s * dz^K wedge dzbar^L wedge (i dz_l wedge dzbar_k) = vol,
    where vol = prod_m (i dz_m wedge dzbar_m).
    """
    # reference sign: vol as a coefficient on (dz^{0..n-1}, dzbar^{0..n-1})
    # built by explicit wedge of the n factors i dz_m dzbar_m
    table = {}
    full = tuple(range(n))
    for k in range(n):
        for l in range(n):
            K = tuple(m for m in full if m != l)
            L = tuple(m for m in full if m != k)
            # sign of dz^K dzbar^L wedge dz_l dzbar_k -> dz^full dzbar^full
            _, sI = merge_sign(K, (l,))
            _, sJ = merge_sign(L, (k,))
            cross = -1.0 if (len(L) * 1) % 2 else 1.0  # dz_l past dzbar^L
            pair_sign = sI * sJ * cross
            vol_coeff = (1j**n) * _interleave_sign(n)
            # s * pair_sign * i = vol_coeff
            s = vol_coeff / (pair_sign * 1j)
            table[(k, l)] = (K, L, s)
    return table


def _interleave_sign(n: int) -> float:
    """Sign relating dz_1 dzbar_1 ... dz_n dzbar_n to dz^{1..n} wedge dzbar^{1..n}."""
    # moving dzbar_m left past (n - m) dz factors, m = 1..n (1-based)
    swaps = sum(n - m for m in range(1, n + 1))
    return -1.0 if swaps % 2 else 1.0


def volume_coefficient(n: int) -> complex:
    """Coefficient of prod_m (i dz_m dzbar_m) on the (full, full) basis key."""
    return (1j**n) * _interleave_sign(n)


def form_to_matrix(phi: FormField) -> np.ndarray:
    """Hermitian matrix field Lambda with phi = (n-1)! sum Lambda_{k lbar} Xi_{kl}."""
    n = phi.grid.n
    if (phi.p, phi.q) != (n - 1, n - 1):
        raise MetricError(f"need an ({n - 1},{n - 1})-form")
    table = _duality_table(n)
    lam = np.empty(phi.grid.shape + (n, n), dtype=np.complex128)
    fac = FACTORIAL[n - 1]
    for (k, l), (K, L, s) in table.items():
        lam[..., k, l] = phi.coefficient(K, L) / (s * fac)
    return lam


def matrix_to_form(grid: PeriodicGrid, lam: np.ndarray) -> FormField:
    """Inverse of form_to_matrix."""
    n = grid.n
    table = _duality_table(n)
    fac = FACTORIAL[n - 1]
    coeffs: dict = {}
    for (k, l), (K, L, s) in table.items():
        key = (K, L)
        term = (s * fac) * lam[..., k, l]
        coeffs[key] = coeffs[key] + term if key in coeffs else term
    return FormField(grid, n - 1, n - 1, coeffs)


def hodge_root(phi: FormField) -> HermitianMetricField:
    """Michelsohn (n-1)-root: the metric G with omega_G^{n-1} = phi."""
    n = phi.grid.n
    lam = form_to_matrix(phi)
    lam = 0.5 * (lam + np.conj(np.swapaxes(lam, -1, -2)))
    if not np.isfinite(lam).all():
        raise MetricError("(n-1, n-1)-form has non-finite coefficients")
    if not is_positive_definite(lam):
        raise MetricError("(n-1, n-1)-form is not positive at some grid point")
    det = smallmat.det(lam)
    # a positive multiple of inv(lam) is Hermitian to round-off and
    # positive definite, as lam is
    G = det[..., None, None] ** (1.0 / (n - 1)) * smallmat.inverse(lam)
    return HermitianMetricField._unchecked(phi.grid, G)


# ---------------------------------------------------------------------------
# shared Newton-Krylov plumbing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _flat_laplacian_symbol(grid: PeriodicGrid) -> np.ndarray:
    """Fourier symbol of the flat complex Laplacian sum_i d_i d_ibar."""
    syms = _z_symbols(grid)
    out = np.zeros(grid.shape)
    for s in syms:
        out = out - np.broadcast_to(np.abs(s) ** 2, grid.shape)
    return out


def _make_preconditioner(grid: PeriodicGrid, c: float, rhs_weight: np.ndarray):
    """Approximate inverse of the bordered system: flat-Laplacian solve for
    the field block, mean bookkeeping for the border."""
    sym = _flat_laplacian_symbol(grid)
    axes = grid.active_axes
    npts = grid.num_points
    wmean = float(np.mean(rhs_weight))

    def apply(r: np.ndarray) -> np.ndarray:
        rf = r[:-1].reshape(grid.shape)
        rb = r[-1]
        rhat = np.fft.fftn(rf, axes=axes)
        zero = (0,) * len(grid.shape)
        db = -rhat[zero].real / npts / wmean
        with np.errstate(divide="ignore", invalid="ignore"):
            phat = np.where(sym != 0.0, rhat / (c * sym), 0.0)
        phat[zero] = rb * npts
        v = np.fft.ifftn(phat, axes=axes).real
        return np.concatenate([v.ravel(), [db]])

    return LinearOperator((npts + 1, npts + 1), matvec=apply, dtype=np.float64)


def _newton_loop(grid, cfg, residual_fn, operator_fn, initial_phi, initial_b):
    """Damped Newton iteration over (phi, b) for residual_fn(phi, b).

    residual_fn returns (R, state) where R is the pointwise equation residual
    and state is whatever operator_fn needs; it raises SolverError (positivity)
    for inadmissible iterates.  operator_fn(state) returns the Jacobian action
    (dphi, db) -> field, the b-column weight field and the flat-Laplacian
    scale c of the preconditioner.
    """
    npts = grid.num_points
    phi = np.array(initial_phi, dtype=np.float64).reshape(grid.shape)
    phi = phi - phi.mean()
    b = float(initial_b)
    R, state = residual_fn(phi, b)
    res = float(np.max(np.abs(R)))
    history = [res]
    trace = [(0, res, b, 0.0)]

    for _ in range(cfg.max_iterations):
        if res <= cfg.tolerance:
            return phi, b, history, state, trace
        apply_A, bcol, c = operator_fn(state)

        def matvec(v):
            dphi = v[:-1].reshape(grid.shape)
            db = v[-1]
            row = apply_A(dphi) - db * bcol
            return np.concatenate([row.ravel(), [dphi.mean()]])

        A_op = LinearOperator((npts + 1, npts + 1), matvec=matvec, dtype=np.float64)
        M = _make_preconditioner(grid, c, bcol)
        rhs = np.concatenate([(-R).ravel(), [0.0]])
        rtol = max(cfg.linear_rtol, min(1e-3, 1e-3 * res))
        sol, info = gmres(A_op, rhs, M=M, rtol=rtol, atol=0.0, maxiter=cfg.linear_maxiter)
        if info != 0:
            raise SolverError(f"linear solve failed (gmres info={info})", history, phi, b)
        dphi = sol[:-1].reshape(grid.shape)
        dphi = dphi - dphi.mean()
        db = float(sol[-1])

        step = 1.0
        while True:
            try:
                R_new, state_new = residual_fn(phi + step * dphi, b + step * db)
            except SolverError:
                R_new = None
            if R_new is not None:
                res_new = float(np.max(np.abs(R_new)))
                if res_new < res * (1.0 - cfg.armijo * step):
                    break
            step *= 0.5
            if step < cfg.min_step:
                raise SolverError(
                    "line search stalled (positivity or descent loss)", history, phi, b
                )
        phi, b = phi + step * dphi, b + step * db
        R, state, res = R_new, state_new, res_new
        history.append(res)
        trace.append((len(history) - 1, res, b, step))

    if res <= cfg.tolerance:
        return phi, b, history, state, trace
    raise SolverError(
        f"max iterations exceeded (residual {res:.3e} > tol {cfg.tolerance:.3e})",
        history, phi, b,
    )


# ---------------------------------------------------------------------------
# Scalar route: full Monge-Ampere for a potential
# ---------------------------------------------------------------------------

def solve_ma2(
    g: HermitianMetricField,
    F: ScalarField,
    cfg: SolverConfig = SolverConfig(),
    initial_phi: np.ndarray | None = None,
) -> MASolution:
    """Solve (omega + i del dbar phi)^n = e^{F+b} omega^n, mean(phi) = 0."""
    grid = g.grid
    Fv = F.values.real
    detg = g.det()
    eF_detg = np.exp(Fv) * detg

    def residual(phi, b):
        gt = g.g + hessian_values(phi.astype(np.complex128), grid)
        gt = 0.5 * (gt + np.conj(np.swapaxes(gt, -1, -2)))
        if not is_positive_definite(gt):
            raise SolverError("positivity lost", [], phi, b)
        detgt = smallmat.det(gt)
        R = detgt - np.exp(b) * eF_detg
        return R, (gt, detgt)

    def operator(state):
        gt, detgt = state
        inv_gt = smallmat.inverse(gt)

        def apply_A(v):
            Hv = hessian_values(v.astype(np.complex128), grid)
            return (detgt * np.einsum("...ij,...ji->...", inv_gt, Hv)).real

        c = float(np.mean(detgt * np.einsum("...ii->...", inv_gt).real) / grid.n)
        return apply_A, detgt, c

    b0 = float(np.log(np.mean(detg) / np.mean(eF_detg)))
    phi0 = np.zeros(grid.shape) if initial_phi is None else initial_phi
    phi, b, history, state, trace = _newton_loop(grid, cfg, residual, operator, phi0, b0)
    return MASolution(
        ScalarField(grid, phi.astype(np.complex128)),
        b,
        history,
        # residual() symmetrised gt and checked its positivity
        HermitianMetricField._unchecked(grid, state[0]),
        trace,
    )


# ---------------------------------------------------------------------------
# Form-type route: equation on (n-1)-th wedge powers, Kahler reference
# ---------------------------------------------------------------------------

def solve_ma3(
    g: HermitianMetricField,
    g0: HermitianMetricField,
    F: ScalarField,
    cfg: SolverConfig = SolverConfig(),
    initial_phi: np.ndarray | None = None,
    kahler_tol: float = 1e-10,
) -> MASolution:
    """Solve omegat^n = e^{F+b} omega^n with
    omegat^{n-1} = omega^{n-1} + i del dbar phi wedge omega0^{n-2}."""
    grid = g.grid
    n = grid.n
    if n != 3:
        raise MetricError("the form-type solver is implemented for n = 3")
    if d_max_norm(g0.fundamental_form()) > kahler_tol:
        raise MetricError(f"reference metric is not Kahler at tolerance {kahler_tol:g}")

    omega = g.fundamental_form()
    phi_base = wedge_power(omega, n - 1)
    om0_pow = wedge_power(g0.fundamental_form(), n - 2) if n - 2 >= 2 else g0.fundamental_form()
    Fv = F.values.real
    eF_detg = np.exp(Fv) * g.det()
    root_exp = 1.0 / (n - 1)

    def hess_form(v):
        H = hessian_values(v.astype(np.complex128), grid)
        coeffs = {((i,), (j,)): 1j * H[..., i, j] for i in range(n) for j in range(n)}
        return FormField(grid, 1, 1, coeffs)

    def lam_of(v):
        lam = form_to_matrix(phi_base + wedge(hess_form(v), om0_pow))
        return 0.5 * (lam + np.conj(np.swapaxes(lam, -1, -2)))

    def residual(phi, b):
        lam = lam_of(phi)
        if not is_positive_definite(lam):
            raise SolverError("(n-1)-positivity lost", [], phi, b)
        detlam = smallmat.det(lam)
        dets = detlam**root_exp  # = det of the root metric = omegat^n / omega_flat-normalization
        R = dets - np.exp(b) * eF_detg
        return R, (lam, dets)

    # identity-Hessian response fixes the preconditioner scale
    id_form = FormField(
        grid, 1, 1, {((i,), (i,)): 1j * np.ones(grid.shape) for i in range(n)}
    )
    dlam_id = form_to_matrix(wedge(id_form, om0_pow))

    def operator(state):
        lam, dets = state
        inv_lam = smallmat.inverse(lam)
        scale = root_exp * dets

        def apply_A(v):
            dphi_form = wedge(hess_form(v), om0_pow)
            dlam = form_to_matrix(dphi_form)
            return (scale * np.einsum("...ij,...ji->...", inv_lam, dlam)).real

        tr = np.einsum("...ij,...ji->...", inv_lam, dlam_id).real
        return apply_A, dets, float(np.mean(scale * tr) / n)

    b0 = float(np.log(np.mean(g.det()) / np.mean(eF_detg)))
    phi0 = np.zeros(grid.shape) if initial_phi is None else initial_phi
    phi, b, history, state, trace = _newton_loop(grid, cfg, residual, operator, phi0, b0)
    lam, _ = state
    metric_out = hodge_root(matrix_to_form(grid, lam))
    return MASolution(ScalarField(grid, phi.astype(np.complex128)), b, history, metric_out, trace)


def uniqueness_probe(solver, guess_a: np.ndarray, guess_b: np.ndarray) -> float:
    """Max |phi_a - phi_b| after mean-zero normalization of two solver runs.

    solver is a callable mapping an initial guess to an MASolution.
    """
    sol_a = solver(guess_a)
    sol_b = solver(guess_b)
    pa = sol_a.phi.values.real
    pb = sol_b.phi.values.real
    return float(np.max(np.abs((pa - pa.mean()) - (pb - pb.mean()))))
