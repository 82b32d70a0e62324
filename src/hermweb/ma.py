"""Elliptic Monge-Ampere solvers producing Chern-Ricci-flat metrics.

solve_ma2 finds (phi, b) with  (omega + i del dbar phi)^n = e^{F+b} omega^n.
solve_ma3 (n = 3, Kahler reference) finds (phi, b) with
    omegat^{n-1} = omega^{n-1} + i del dbar phi wedge omega0^{n-2},
    omegat^n = e^{F+b} omega^n,
recovering omegat through the pointwise Michelsohn (n-1)-root.

solve_ma3 works on matrix fields.  form_to_matrix sends omega_g^{n-1} to
adj g, so for n = 3 the (n-1, n-1)-form above becomes
    Lambda(phi) = adj g + 1/2 M(Hess phi, g0),
with M(A, B) = adj(A + B) - adj A - adj B the polarised adjugate, and the
root metric is adj Lambda / det(Lambda)^{1/2}.  The form path
(form_to_matrix, matrix_to_form, hodge_root) stays the public API and is the
tests' oracle for this identity.  The reference metric's Kahler check,
max|d omega0| <= KAHLER_TOL, is metric.kahler_excess on the stack of g0,
not exterior_d of a form.  A g0 constant over the grid, the usual flat
reference, is Kahler exactly and costs no transform.  Any other g0 costs
one real transform, and an inverse one only when the spectral bound on
max|d omega0| exceeds KAHLER_TOL, so a Kahler g0 costs no inverse
transform.  The MetricError of a rejected g0 states the max.  g0 and F
must live on the grid of g (MetricError otherwise).

Lambda(H) = adj g + 1/2 M(H, g0) is affine in the Hessian H, so the Newton
loop carries its linear part L = 1/2 M(Hess phi, g0) and lifts each step's
Hessian stack once, with two adjugates: a line-search trial is one axpy on
L, and phi = 0 costs no adjugate.  Each iterate takes one adjugate of
Lambda.  Sylvester's test reads Lambda_11, adj(Lambda)_33 (the leading
2x2 minor) and det Lambda, which smallmat.stack_det_from_adjugate expands
from adj Lambda along the first row; the Newton coefficients and the
output metric adj Lambda / det(Lambda)^{1/2} reuse the same adj Lambda.

Both use damped Newton iterations with one linearisation,
    dR[v] = w Re tr(K Hess v),
where w K = det(gt) gt^{-1} = adj gt for solve_ma2 and, since
tr(P M(H, B)) = tr(M(P, B) H), w K = M(adj Lambda, g0) / (4 det(Lambda)^{1/2})
for solve_ma3, with w = det gt and w = det(Lambda)^{1/2}.  As adj(adj L) =
det(L) L for 3x3 matrices, M(adj Lambda, g0) takes one adjugate beside
adj Lambda: adj(adj Lambda + g0) - det(Lambda) Lambda - adj g0.  The
linear systems carry the constant b as an extra unknown in a bordered
system A.  GMRES solves it right-preconditioned (Saad, Iterative Methods
for Sparse Linear Systems, 2nd ed., 2003, 9.3): A M u = rhs, then
(dphi, db) = M u, with M a flat-Laplacian Fourier multiplier.  GMRES's
relative tolerance is an Eisenstat-Walker forcing term (_forcing_term):
loose on the early Newton steps, tight near the solution.  Convergence is
the Newton test alone.

The GMRES is restarted GMRES(20) with modified Gram-Schmidt (Saad and
Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) and no preconditioner: the
solvers hand it A M.  It keeps the images A v_j of its basis, so a cycle
that stops before its full length updates its residual instead of
applying A once more.  hermweb carries its own so that it needs only
numpy at run time: on a 2-vCPU host, importing scipy.sparse.linalg took
0.35-0.4 s of hermweb's 0.45 s import and about 24 MB of every process's
peak memory.

Every Hermitian field inside the solvers is a real stack in the layout of
smallmat (the n diagonal rows, then Re and then Im of the upper entries):
the solvers read HermitianMetricField.stack of g and g0 and build the
output metric from its stack.
For Hermitian K, Re tr(K H) does not see the anti-Hermitian part of H, so
the residuals and the linearisation take only the Hermitian part of
Hess phi, as the stack of grid.hermitian_hessian_stack (real transforms
only).  solve_ma2 takes positivity and det from smallmat.stack_minors;
adj and with it M come from smallmat.stack_adjugate.  Re tr(K H) is the
sum over the stack rows of w K times those of H, the off-diagonal rows
counted twice.  As M feeds only A's Hessian, A M is one rfft_active, the
Hessian multipliers divided by the Laplacian symbol (Q[1:] of
grid._laplacian_solve_multipliers), one irfft_active batched over the
stack rows that are not identically zero (on x axes alone 3 of 4 for
n = 2, 6 of 9 for n = 3) and one contraction: one real transform pair per
GMRES iteration.  The step M u and its Hessian
stack come from one more pair per Newton step, with all of Q, and the
Newton loop carries the Hessian stack of phi (for solve_ma3 its image L),
so the residuals, line-search trials included, make no transform.  A solve
assembles no complex (n, n) field: the output metric is built from its
stack and assembles its complex field when it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .grid import (
    PeriodicGrid,
    ScalarField,
    _laplacian_solve_multipliers,
    hermitian_hessian_stack,
    irfft_active,
    rfft_active,
)
from .forms import FormField
from .metric import HermitianMetricField, MetricError, kahler_excess, minors_positive
from .smallmat import hermitian_stack, stack_adjugate, stack_det_from_adjugate, stack_minors

FACTORIAL = {1: 1, 2: 2, 3: 6}


class SolverError(RuntimeError):
    """Raised on positivity loss or non-convergence; carries the last iterate."""

    def __init__(self, message: str, history: list[float], phi: np.ndarray | None = None, b: float = 0.0):
        super().__init__(message)
        self.history = history
        self.phi = phi
        self.b = b


# line search: the shortest step and the Armijo sufficient-decrease constant;
# GMRES: the floor of the forcing term (its relative tolerance), the cap of
# restart cycles per Newton step and the length of a cycle
MIN_STEP = 1e-6
ARMIJO = 1e-4
LINEAR_RTOL = 1e-10
LINEAR_MAXITER = 400
_LINEAR_RESTART = 20
KAHLER_TOL = 1e-10  # solve_ma3 rejects a reference metric with larger max|d omega0|
# Eisenstat-Walker choice 2: eta_k = GAMMA (res_k / res_{k-1})^2, at most ETA_MAX
GAMMA = 0.5
ETA_MAX = 0.1


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-11
    max_iterations: int = 40

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class MASolution:
    phi: ScalarField
    b: float
    residual_history: list[float]
    metric_out: HermitianMetricField
    trace: list[tuple] = field(default_factory=list)  # (iteration, residual, b, step)
    linear_iterations: tuple[int, ...] = ()  # GMRES iterations of each Newton step
    linear_rtols: tuple[float, ...] = ()  # GMRES relative tolerance of each Newton step

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
    where vol = prod_m (i dz_m wedge dzbar_m).  Sorting dz_l into dz^K takes
    n-1-l transpositions, dzbar_k into dzbar^L n-1-k, and dz_l passes the
    n-1 factors of dzbar^L: s = vol (-1)^{k+l+n-1} / i.
    """
    full = tuple(range(n))
    vol = volume_coefficient(n)
    return {
        (k, l): (full[:l] + full[l + 1:], full[:k] + full[k + 1:], vol * (-1) ** (k + l + n - 1) / 1j)
        for k in range(n)
        for l in range(n)
    }


def volume_coefficient(n: int) -> complex:
    """Coefficient of prod_m (i dz_m dzbar_m) on the (full, full) basis key:
    i^n (-1)^{n(n-1)/2}, as each dzbar_m passes the dz of every later m."""
    return (1j**n) * (-1) ** (n * (n - 1) // 2)


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
    # each slot (k, l) has its own key: K leaves out l, L leaves out k
    coeffs = {(K, L): (s * fac) * lam[..., k, l] for (k, l), (K, L, s) in table.items()}
    return FormField(grid, n - 1, n - 1, coeffs)


def hodge_root(phi: FormField) -> HermitianMetricField:
    """Michelsohn (n-1)-root: the metric G with omega_G^{n-1} = phi, that is
    adj G = Lambda = form_to_matrix(phi): G = det(Lambda)^{1/(n-1)} Lambda^{-1}."""
    lam = form_to_matrix(phi)
    if not np.isfinite(lam).all():
        raise MetricError("(n-1, n-1)-form has non-finite coefficients")
    S = hermitian_stack(lam)
    minors = stack_minors(S)
    if not minors_positive(minors):
        raise MetricError("(n-1, n-1)-form is not positive at some grid point")
    # a positive multiple of adj Lambda, so positive definite, as Lambda is
    G = stack_adjugate(S) * minors[-1] ** (1.0 / (phi.grid.n - 1) - 1.0)
    return HermitianMetricField._unchecked(phi.grid, G)


# ---------------------------------------------------------------------------
# Restarted GMRES
# ---------------------------------------------------------------------------

class LinearOperator(NamedTuple):
    """A real square operator: its shape, its action on a vector, its dtype."""

    shape: tuple[int, int]
    matvec: Callable[[np.ndarray], np.ndarray]
    dtype: type


# LAPACK lartg's range in which it rotates without scaling: sqrt(safmin) and
# sqrt(safmax / 2), with safmin the smallest normal number, safmax = 1 / safmin
_RTMIN = math.sqrt(np.finfo(np.float64).tiny)
_RTMAX = math.sqrt(0.5 / np.finfo(np.float64).tiny)


def _givens(f: float, g: float) -> tuple[float, float, float]:
    """(c, s, r) with [[c, s], [-s, c]] (f, g) = (r, 0), c >= 0 and r of the
    sign of f: LAPACK lartg.  Inside lartg's unscaled range, d below is the
    same expression lartg evaluates, so the rotations agree to the bit."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), abs(g)
    if _RTMIN < abs(f) < _RTMAX and _RTMIN < abs(g) < _RTMAX:
        d = math.sqrt(f * f + g * g)
    else:
        d = math.hypot(f, g)
    r = math.copysign(d, f)
    return abs(f) / d, g / r, r


def gmres(A, b, *, M=None, rtol, atol=0.0, maxiter, callback=None, callback_type="pr_norm"):
    """Solve A x = b from x = 0 by GMRES(20) with no preconditioner; the
    solvers pass their right-preconditioned A M.  M and callback_type take
    only None and "pr_norm", the benchmark tracer's call.

    A cycle ends once its residual estimate is at most
    atol = max(atol, rtol |b|), when it is full, or on a breakdown
    h1 <= eps h0, where its solution is exact.  An early end takes the
    residual from the kept images A v_j; a full cycle applies A to x afresh,
    so the residual does not drift over restarts.  The solve ends once
    |b - A x| <= atol or after maxiter cycles.  callback, if given, receives
    the estimate over |b| after each inner iteration.
    Returns (x, info, iterations): info is 0 on convergence, else maxiter.
    """
    if M is not None or callback_type != "pr_norm":
        raise ValueError("gmres takes M=None and callback_type='pr_norm' only")
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    x = np.zeros(n)
    bnrm2 = math.sqrt(b @ b)
    atol = max(float(atol), float(rtol) * bnrm2)
    if bnrm2 == 0.0 or bnrm2 < atol:
        return x, 0, 0
    eps = float(np.finfo(np.float64).eps)
    restart = min(_LINEAR_RESTART, n)
    # the Arnoldi basis v and its images Av = A v, in one allocation
    basis = np.empty((2 * restart + 1, n))
    v, Av = basis[: restart + 1], basis[restart + 1 :]
    # h[col] holds column col of the Hessenberg matrix, rotated into the
    # triangular factor as the cycle goes
    h = np.zeros((restart, restart + 1))
    iterations = 0
    r, rnorm = b, bnrm2

    for _ in range(maxiter):
        v[0] = r * (1 / rnorm)
        S = np.zeros(restart + 1)  # the rotated right-hand side rnorm e_1
        S[0] = rnorm
        rotations = []
        for col in range(restart):
            Av[col] = w = A.matvec(v[col])
            h0 = math.sqrt(w @ w)
            hcol = h[col]
            for k in range(col + 1):
                hk = v[k] @ w
                hcol[k] = hk
                w -= hk * v[k]
            h1 = math.sqrt(w @ w)
            breakdown = h1 <= eps * h0
            if not breakdown:
                v[col + 1] = w * (1 / h1)
            hcol[col + 1] = 0.0 if breakdown else h1
            for k, (c, s) in enumerate(rotations):
                n0, n1 = float(hcol[k]), float(hcol[k + 1])
                hcol[k], hcol[k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            c, s, mag = _givens(float(hcol[col]), float(hcol[col + 1]))
            rotations.append((c, s))
            hcol[col], hcol[col + 1] = mag, 0.0
            Scol = float(S[col])
            S[col], S[col + 1] = c * Scol, -s * Scol
            presid = abs(s * Scol)
            iterations += 1
            if callback is not None:
                callback(presid / bnrm2)
            if presid <= atol or breakdown:
                break

        # back substitution on the triangular factor; a zero pivot makes the
        # last entry of y zero (scipy's pseudo-solve)
        if h[col, col] == 0.0:
            S[col] = 0.0
        y = S[: col + 1].copy()
        for k in range(col, -1, -1):
            if y[k] != 0.0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        x += y @ v[: col + 1]

        if presid <= atol or breakdown:
            r = r - y @ Av[: col + 1]
        else:
            r = b - A.matvec(x)
        rnorm = math.sqrt(r @ r)
        if rnorm <= atol or breakdown:
            break

    return x, (0 if rnorm <= atol else maxiter), iterations


# ---------------------------------------------------------------------------
# shared Newton-Krylov plumbing
# ---------------------------------------------------------------------------

def _check_grids(grid: PeriodicGrid, **fields) -> None:
    """MetricError naming the first field that does not live on grid."""
    for name, f in fields.items():
        if f.grid != grid:
            raise MetricError(
                f"{name} lives on grid {f.grid.sizes} (n = {f.grid.n}), the metric on {grid.sizes} (n = {grid.n})"
            )


def _make_system(grid: PeriodicGrid, WK: np.ndarray, w: np.ndarray):
    """The bordered Newton operator A right-preconditioned by M, and M:
    (A M as a LinearOperator for gmres, the function apply_M).

    A (dphi, db) = (w Re tr(K Hess dphi) - db w, mean dphi) contracts the
    stack WK of w K, whose off-diagonal rows count twice in the trace, with
    the Hessian stack of dphi.  M solves c Lap on the field block, with
    c = mean(w tr K)/n the mean of the n diagonal rows of WK, and does the
    mean bookkeeping of the border:
        M (u, u_b) = (Lap^{-1}(u - mean u) / c + u_b, -mean u / mean w).
    M is a Fourier multiplier and a constant has no Hessian, so
        A M (u, u_b) = (Re tr(WK/c Hess Lap^{-1} u) + (mean u / mean w) w, u_b):
    one rfft_active and one irfft_active over the Hessian rows that are not
    identically zero on the grid, with P = Q[1:] of grid's cached
    _laplacian_solve_multipliers, the multipliers of Hess Lap^{-1}.
    apply_M(u) returns (dphi, dH, db), with M u = (dphi, db)
    and dH the hermitian_hessian_stack of dphi: one rfft_active and one
    irfft_active batched over dphi and the rows of dH that are not
    identically zero (the others are zero).
    """
    n = grid.n
    c = float(np.mean(WK[:n]))
    rows, Q = _laplacian_solve_multipliers(grid)
    P = Q[1:]
    C = WK[rows] / c
    C[rows >= n] *= 2.0
    zero = (0,) * len(grid.shape)
    npts = grid.num_points
    wmean = float(np.mean(w))

    def apply_AM(u: np.ndarray) -> np.ndarray:
        uhat = rfft_active(u[:-1].reshape(grid.shape), grid)
        row = np.einsum("k...,k...->...", C, irfft_active(P * uhat, grid, 1))
        row += (uhat[zero].real / npts / wmean) * w
        return np.concatenate([row.ravel(), [u[-1]]])

    def apply_M(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        uhat = rfft_active(u[:-1].reshape(grid.shape), grid)
        db = -uhat[zero].real / npts / wmean
        uhat *= 1.0 / c
        out = irfft_active(Q * uhat, grid, 1)
        dH = np.zeros((n * n,) + grid.shape)
        dH[rows] = out[1:]
        return out[0] + u[-1], dH, db

    return LinearOperator((npts + 1, npts + 1), matvec=apply_AM, dtype=np.float64), apply_M


def _forcing_term(eta_prev: float | None, res: float, res_prev: float | None, tol: float) -> float:
    """GMRES's relative tolerance for the Newton step from residual res:
    Eisenstat and Walker's choice 2 (SIAM J. Sci. Comput. 17, 1996; Kelley,
    Iterative Methods for Linear and Nonlinear Equations, SIAM, 1995, ch. 6).

    The first step (eta_prev None) takes ETA_MAX; later ones
    GAMMA (res / res_prev)^2, raised to GAMMA eta_prev^2 when that exceeds
    0.1, capped at ETA_MAX.  The floor max(LINEAR_RTOL, 0.5 tol / res) keeps
    the last step from solving past what the Newton test asks; it compares
    a max-norm residual with a relative 2-norm, so it is a heuristic, and a
    step left too loose costs one more Newton step.
    """
    if eta_prev is None:
        eta = ETA_MAX
    else:
        eta = GAMMA * (res / res_prev) ** 2
        if GAMMA * eta_prev**2 > 0.1:
            eta = max(eta, GAMMA * eta_prev**2)
        eta = min(eta, ETA_MAX)
    return max(eta, LINEAR_RTOL, 0.5 * tol / res)


def _line_search(residual_fn, L, dL, b, db, res):
    """Backtracking on the step: 1, 1/2, ... down to MIN_STEP, the first
    whose trial residual_fn(L + step dL, b + step db) is admissible with the
    Armijo decrease of max|R| from res.  Returns (step, L + step dL, R,
    state, max|R|) of that trial; raises SolverError when no step passes."""
    step = 1.0
    while step >= MIN_STEP:
        L_new = L + step * dL
        try:
            R, state = residual_fn(L_new, b + step * db)
        except SolverError:
            R = None
        if R is not None:
            res_new = float(np.max(np.abs(R)))
            if res_new < res * (1.0 - ARMIJO * step):
                return step, L_new, R, state, res_new
        step *= 0.5
    raise SolverError("line search stalled (positivity or descent loss)", [])


def _newton_loop(grid, cfg, residual_fn, coefficients_fn, lift, initial_phi, initial_b):
    """Damped Newton iteration over (phi, b) for residual_fn(L, b), with
    L = lift(H) the image of the hermitian_hessian_stack H of phi under the
    solver's linear map lift: the solver's stack is its constant part plus
    L.  initial_phi None starts from phi = 0, whose L is zero; another start
    takes one transform pair for H and one lift.

    residual_fn returns (R, state) where R is the pointwise equation residual
    and state is whatever coefficients_fn needs; it raises SolverError
    (positivity) for inadmissible iterates.  coefficients_fn(state) returns
    the real stack WK of w K and the weight field w of the linearised
    residual
        (dphi, db) -> w Re tr(K Hess dphi) - db w;
    the border column -w is exact at a solution, where e^b e^F det g = w.
    GMRES solves the system right-preconditioned, A M u = rhs, by
    _make_system's A M, and the step is (dphi, db) = M u.  M inverts c times
    the flat Laplacian, c = mean(w tr K)/n, the mean of the n diagonal rows
    of WK.  Each GMRES iteration makes one rfft_active and one irfft_active
    batched over the Hessian rows that are not identically zero.  The apply
    of M gives the Hessian stack dH of the step from its own transform pair,
    lifted once to dL = lift(dH), so L is carried along with phi, and a
    line-search trial is residual_fn(L + step dL, b + step db): the
    residuals make no transform, and a trial maps nothing through lift.
    GMRES stops at the relative tolerance _forcing_term picks from the last
    two residuals: loose while Newton is far from the solution, tighter as
    it converges quadratically.

    Returns (phi, b, state, record), record holding MASolution's
    residual_history, trace, linear_iterations and linear_rtols.
    """
    if initial_phi is None:
        phi = np.zeros(grid.shape)
        L = np.zeros((grid.n**2,) + grid.shape)
    else:
        phi = np.array(initial_phi, dtype=np.float64).reshape(grid.shape)
        phi = phi - phi.mean()
        L = lift(hermitian_hessian_stack(phi, grid))
    b = float(initial_b)
    try:
        R, state = residual_fn(L, b)
    except SolverError as err:
        raise SolverError(str(err), [], phi, b) from None
    res = float(np.max(np.abs(R)))
    history = [res]
    trace = [(0, res, b, 0.0)]
    linear_iterations, linear_rtols = [], []
    rtol = None  # the forcing term of the previous Newton step

    for _ in range(cfg.max_iterations):
        if res <= cfg.tolerance:
            break
        WK, w = coefficients_fn(state)
        # only the accepted trial's state is read again: not held through GMRES
        del state
        AM, apply_M = _make_system(grid, WK, w)
        rhs = np.concatenate([(-R).ravel(), [0.0]])
        rtol = _forcing_term(rtol, res, history[-2] if len(history) > 1 else None, cfg.tolerance)
        u, info, iterations = gmres(AM, rhs, rtol=rtol, atol=0.0, maxiter=LINEAR_MAXITER)
        if info != 0:
            raise SolverError(f"linear solve failed (gmres info={info})", history, phi, b)
        linear_iterations.append(iterations)
        linear_rtols.append(rtol)
        dphi, dH, db = apply_M(u)
        dphi = dphi - dphi.mean()
        try:
            step, L, R, state, res = _line_search(residual_fn, L, lift(dH), b, db, res)
        except SolverError as err:
            raise SolverError(str(err), history, phi, b) from None
        phi, b = phi + step * dphi, b + step * db
        history.append(res)
        trace.append((len(history) - 1, res, b, step))

    if res > cfg.tolerance:
        raise SolverError(
            f"max iterations exceeded (residual {res:.3e} > tol {cfg.tolerance:.3e})",
            history, phi, b,
        )
    record = dict(
        residual_history=history,
        trace=trace,
        linear_iterations=tuple(linear_iterations),
        linear_rtols=tuple(linear_rtols),
    )
    return phi, b, state, record


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
    _check_grids(grid, F=F)
    S_g = g.stack
    detg = stack_minors(S_g)[-1]
    eF_detg = np.exp(F.values.real) * detg

    def residual(H, b):
        S = S_g + H
        minors = stack_minors(S)
        if not minors_positive(minors):
            raise SolverError("positivity lost", [])
        R = minors[-1] - np.exp(b) * eF_detg
        return R, (S, minors[-1])

    def coefficients(state):
        S, detgt = state
        return stack_adjugate(S), detgt

    b0 = float(np.log(np.mean(detg) / np.mean(eF_detg)))
    # g + Hess phi is affine in Hess phi with the identity as its linear part
    phi, b, state, record = _newton_loop(grid, cfg, residual, coefficients, lambda H: H, initial_phi, b0)
    # residual() checked the positivity of the stack
    metric_out = HermitianMetricField._unchecked(grid, state[0])
    return MASolution(ScalarField(grid, phi), b, metric_out=metric_out, **record)


# ---------------------------------------------------------------------------
# Form-type route: equation on (n-1)-th wedge powers, Kahler reference
# ---------------------------------------------------------------------------

def _polarised_adjugate(X: np.ndarray, B: np.ndarray, adj_B: np.ndarray) -> np.ndarray:
    """The stack of M(X, B) = adj(X + B) - adj X - adj B of 3x3 stacks, with
    adj B given: symmetric and bilinear, M(X, X) = 2 adj X."""
    return stack_adjugate(X + B) - stack_adjugate(X) - adj_B


def solve_ma3(
    g: HermitianMetricField,
    g0: HermitianMetricField,
    F: ScalarField,
    cfg: SolverConfig = SolverConfig(),
    initial_phi: np.ndarray | None = None,
) -> MASolution:
    """Solve omegat^n = e^{F+b} omega^n with
    omegat^{n-1} = omega^{n-1} + i del dbar phi wedge omega0^{n-2}."""
    grid = g.grid
    if grid.n != 3:
        raise MetricError("the form-type solver is implemented for n = 3")
    _check_grids(grid, g0=g0, F=F)
    S_g, S_g0 = g.stack, g0.stack
    d_omega0 = kahler_excess(S_g0, grid, KAHLER_TOL)
    if d_omega0 is not None:
        raise MetricError(
            f"reference metric is not Kahler: max|d omega0| = {d_omega0:.6e} > KAHLER_TOL = {KAHLER_TOL:g}"
        )
    adj_g, adj_g0 = stack_adjugate(S_g), stack_adjugate(S_g0)
    detg = stack_det_from_adjugate(S_g, adj_g)
    eF_detg = np.exp(F.values.real) * detg

    def lift(H):
        # the linear part of Lambda(H) = adj g + 1/2 M(H, g0)
        return 0.5 * _polarised_adjugate(H, S_g0, adj_g0)

    def residual(L, b):
        lam = adj_g + L
        adj_lam = stack_adjugate(lam)
        # Sylvester's test on the leading minors Lambda_11, adj(Lambda)_33
        # and det Lambda, all three from adj Lambda
        det = stack_det_from_adjugate(lam, adj_lam)
        if not minors_positive([lam[0], adj_lam[2], det]):
            raise SolverError("(n-1)-positivity lost", [])
        dets = np.sqrt(det)  # det of the root metric
        R = dets - np.exp(b) * eF_detg
        return R, (lam, adj_lam, dets)

    def coefficients(state):
        # M(adj Lambda, g0), with adj(adj Lambda) = det(Lambda) Lambda for
        # 3x3 matrices and det Lambda = dets^2
        lam, adj_lam, dets = state
        M = stack_adjugate(adj_lam + S_g0)
        M -= (dets * dets) * lam
        M -= adj_g0
        M /= 4.0 * dets
        return M, dets

    b0 = float(np.log(np.mean(detg) / np.mean(eF_detg)))
    phi, b, state, record = _newton_loop(grid, cfg, residual, coefficients, lift, initial_phi, b0)
    _, adj_lam, dets = state
    # adj Lambda / det(Lambda)^{1/2}, positive definite as Lambda is
    metric_out = HermitianMetricField._unchecked(grid, adj_lam / dets)
    return MASolution(ScalarField(grid, phi), b, metric_out=metric_out, **record)
