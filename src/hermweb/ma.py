"""Elliptic Monge-Ampere solvers producing Chern-Ricci-flat metrics.

solve_ma2 finds (phi, b) with  (omega + i del dbar phi)^n = e^{F+b} omega^n.
solve_ma3 (n = 3, Kahler reference) finds (phi, b) with
    omegat^{n-1} = omega^{n-1} + i del dbar phi wedge omega0^{n-2},
    omegat^n = e^{F+b} omega^n,
recovering omegat through the pointwise Michelsohn (n-1)-root.

solve_ma3 works on matrix fields.  form_to_matrix sends omega_g^{n-1} to
adj g, so for n = 3 the (n-1, n-1)-form above becomes
    Lambda(phi) = adj g + 1/2 M(Hess phi, g0),
with M(A, B) = adj(A + B) - adj A - adj B the polarised adjugate
(smallmat.mixed_adjugate).  The form path (form_to_matrix, matrix_to_form,
hodge_root) stays the public API and is the tests' oracle for this identity.

Both use damped Newton iterations with one linearisation,
    dR[v] = w Re tr(K Hess v),
where K = gt^{-1}, w = det gt for solve_ma2 and, since
tr(P M(H, B)) = tr(M(P, B) H), K = M(Lambda^{-1}, g0) / (2 (n-1)),
w = det(Lambda)^{1/(n-1)} for solve_ma3.  The linear systems are solved by
GMRES with a flat-Laplacian Fourier preconditioner, with the constant b
carried as an extra unknown in a bordered system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from . import smallmat
from .grid import PeriodicGrid, ScalarField, hessian_values, laplacian_symbol
from .forms import FormField, d_max_norm, merge_sign, sort_sign
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
    table = {}
    full = tuple(range(n))
    vol = volume_coefficient(n)
    for k in range(n):
        for l in range(n):
            K = tuple(m for m in full if m != l)
            L = tuple(m for m in full if m != k)
            # sign of dz^K dzbar^L wedge dz_l dzbar_k -> dz^full dzbar^full;
            # dz_l moves left past the n - 1 factors of dzbar^L
            _, sI = merge_sign(K, (l,))
            _, sJ = merge_sign(L, (k,))
            pair_sign = sI * sJ * (-1.0 if len(L) % 2 else 1.0)
            table[(k, l)] = (K, L, vol / (pair_sign * 1j))
    return table


def volume_coefficient(n: int) -> complex:
    """Coefficient of prod_m (i dz_m dzbar_m) on the (full, full) basis key."""
    # dzbar_m is generator n + m; sort dz_0 dzbar_0 ... dz_{n-1} dzbar_{n-1}
    _, sign = sort_sign(tuple(gen for m in range(n) for gen in (m, n + m)))
    return (1j**n) * sign


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
    return _michelsohn_root(phi.grid, form_to_matrix(phi))


def _michelsohn_root(grid: PeriodicGrid, lam: np.ndarray) -> HermitianMetricField:
    """The metric G with form_to_matrix(omega_G^{n-1}) = lam, that is
    adj G = lam: G = det(lam)^{1/(n-1)} lam^{-1}."""
    n = grid.n
    lam = 0.5 * (lam + np.conj(np.swapaxes(lam, -1, -2)))
    if not np.isfinite(lam).all():
        raise MetricError("(n-1, n-1)-form has non-finite coefficients")
    if not is_positive_definite(lam):
        raise MetricError("(n-1, n-1)-form is not positive at some grid point")
    det = smallmat.det(lam)
    # a positive multiple of inv(lam) is Hermitian to round-off and
    # positive definite, as lam is
    G = det[..., None, None] ** (1.0 / (n - 1)) * smallmat.inverse(lam)
    return HermitianMetricField._unchecked(grid, G)


# ---------------------------------------------------------------------------
# shared Newton-Krylov plumbing
# ---------------------------------------------------------------------------

def _make_preconditioner(grid: PeriodicGrid, c: float, rhs_weight: np.ndarray):
    """Approximate inverse of the bordered system: flat-Laplacian solve for
    the field block, mean bookkeeping for the border."""
    sym = laplacian_symbol(grid)
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


def _newton_loop(grid, cfg, residual_fn, coefficients_fn, initial_phi, initial_b):
    """Damped Newton iteration over (phi, b) for residual_fn(phi, b).

    residual_fn returns (R, state) where R is the pointwise equation residual
    and state is whatever coefficients_fn needs; it raises SolverError
    (positivity) for inadmissible iterates.  coefficients_fn(state) returns
    the matrix field K and the weight field w of the linearised residual
        (dphi, db) -> w Re tr(K Hess dphi) - db w;
    the border column -w is exact at a solution, where e^b e^F det g = w.
    The preconditioner inverts c times the flat Laplacian, c = mean(w tr K)/n.
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
        K, w = coefficients_fn(state)
        c = float(np.mean(w * np.einsum("...ii->...", K).real) / grid.n)

        def matvec(v):
            dphi = v[:-1].reshape(grid.shape)
            Hv = hessian_values(dphi.astype(np.complex128), grid)
            row = (w * np.einsum("...ij,...ji->...", K, Hv)).real - v[-1] * w
            return np.concatenate([row.ravel(), [dphi.mean()]])

        A_op = LinearOperator((npts + 1, npts + 1), matvec=matvec, dtype=np.float64)
        M = _make_preconditioner(grid, c, w)
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

    def coefficients(state):
        gt, detgt = state
        return smallmat.inverse(gt), detgt

    b0 = float(np.log(np.mean(detg) / np.mean(eF_detg)))
    phi0 = np.zeros(grid.shape) if initial_phi is None else initial_phi
    phi, b, history, state, trace = _newton_loop(grid, cfg, residual, coefficients, phi0, b0)
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

    adj_g = 0.5 * smallmat.mixed_adjugate(g.g, g.g)  # M(g, g) = 2 adj g
    Fv = F.values.real
    eF_detg = np.exp(Fv) * g.det()
    root_exp = 1.0 / (n - 1)

    def residual(phi, b):
        H = hessian_values(phi.astype(np.complex128), grid)
        lam = adj_g + 0.5 * smallmat.mixed_adjugate(H, g0.g)
        lam = 0.5 * (lam + np.conj(np.swapaxes(lam, -1, -2)))
        if not is_positive_definite(lam):
            raise SolverError("(n-1)-positivity lost", [], phi, b)
        dets = smallmat.det(lam) ** root_exp  # det of the root metric
        R = dets - np.exp(b) * eF_detg
        return R, (lam, dets)

    def coefficients(state):
        lam, dets = state
        K = (0.5 * root_exp) * smallmat.mixed_adjugate(smallmat.inverse(lam), g0.g)
        return K, dets

    b0 = float(np.log(np.mean(g.det()) / np.mean(eF_detg)))
    phi0 = np.zeros(grid.shape) if initial_phi is None else initial_phi
    phi, b, history, state, trace = _newton_loop(grid, cfg, residual, coefficients, phi0, b0)
    metric_out = _michelsohn_root(grid, state[0])
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
