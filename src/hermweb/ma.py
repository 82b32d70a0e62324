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
tests' oracle for this identity.  g0 and F must live on the grid of g
(MetricError otherwise).

solve_ma3 chooses the real-linear map P(X) = M(X, g0)/2 on 3x3 stacks
once per solve.  A g0 constant over the grid (smallmat.constant_column),
the usual flat reference, is Kahler exactly, as its spectrum lives at
k = 0, where every derivative symbol is zero.  Its P is the 9x9 matrix
T/2, whose column p is M(e_p, g0)/2 of the p-th unit stack, from one
_polarised_adjugate of the nine unit stacks taken as nine points: P(X) is
one matrix product over the stack, and no grid-sized adj g0 is formed.
Any other g0 must pass the Kahler check max|d omega0| <= KAHLER_TOL,
metric.kahler_excess on its stack (one real transform pair, no form),
whose MetricError states the max; its P takes adj g0 once and two
adjugates per stack.

The Newton loop carries the Hessian stack H of phi, and solve_ma3's left
side builds Lambda = adj g + P(H) and takes one adjugate of it.  Sylvester's
test reads Lambda_11, adj(Lambda)_33 (the leading 2x2 minor) and
det Lambda, which smallmat.stack_det_from_adjugate expands from adj Lambda
along the first row; the Newton coefficients and the output metric
adj Lambda / det(Lambda)^{1/2} reuse the same adj Lambda.

Both equations read lhs(H) = e^{F+b} det g, with H the Hessian stack of
phi, lhs = det(g + H) for solve_ma2 and det(Lambda)^{1/2} for solve_ma3.
_newton_loop owns the equation: the right side, the start
b0 = log(mean det g / mean e^F det g) and the residual
R = lhs - e^b e^F det g.  Each solver hands it lhs, which returns None for
an iterate off the positive cone, and the Newton coefficients.  Failures
travel as values up to _newton_loop, the one place that raises
SolverError, once per failure and with its residual history.

Both use damped Newton iterations with one linearisation,
    dR[v] = w Re tr(K Hess v),
where w K = det(gt) gt^{-1} = adj gt for solve_ma2 and, since
tr(X M(H, B)) = tr(M(X, B) H), w K = P(adj Lambda) / (2 det(Lambda)^{1/2})
for solve_ma3, with w = det gt and w = det(Lambda)^{1/2}.  A Newton step
solves for dphi and the constant db, on vectors of the grid's points
alone: GMRES solves A M u = -R right-preconditioned (Saad, Iterative
Methods for Sparse Linear Systems, 2nd ed., 2003, 9.3), and
(dphi, db) = M u, with M a flat-Laplacian Fourier multiplier that sends
the mean of u, which the Laplacian does not see, to db.  GMRES's relative
tolerance is an Eisenstat-Walker forcing term (_forcing_term): loose on
the early Newton steps, tight near the solution.  Convergence is the
Newton test alone.

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
Newton loop carries the Hessian stack of phi, so the residuals,
line-search trials included, make no transform.  A solve
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
from .smallmat import constant_column, hermitian_stack, stack_adjugate, stack_det_from_adjugate, stack_minors

FACTORIAL = {1: 1, 2: 2, 3: 6}


class SolverError(RuntimeError):
    """Raised by _newton_loop on positivity loss or non-convergence; carries
    the residual history and the last iterate."""

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
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, (int, np.integer)):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
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


def gmres(A, b, *, M=None, rtol, maxiter, callback=None, callback_type="pr_norm"):
    """Solve A x = b from x = 0 by GMRES(20) with no preconditioner; the
    solvers pass their right-preconditioned A M.  M and callback_type take
    only None and "pr_norm", the benchmark tracer's call.

    A cycle ends once its residual estimate is at most atol = rtol |b|,
    when it is full, or on a breakdown h1 <= eps h0, where its solution is
    exact.  An early end takes the residual from the kept images A v_j; a
    full cycle applies A to x afresh, so the residual does not drift over
    restarts.  The solve ends once |b - A x| <= atol or after maxiter
    cycles.  callback, if given, receives the estimate over |b| after each
    inner iteration.
    Returns (x, info, iterations): info is 0 on convergence, else maxiter.
    """
    if M is not None or callback_type != "pr_norm":
        raise ValueError("gmres takes M=None and callback_type='pr_norm' only")
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    x = np.zeros(n)
    bnrm2 = math.sqrt(b @ b)
    atol = float(rtol) * bnrm2
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
    """The Newton operator A right-preconditioned by M, and M:
    (A M as a LinearOperator for gmres, the function apply_M).

    A (dphi, db) = w Re tr(K Hess dphi) - db w contracts the stack WK of
    w K, whose off-diagonal rows count twice in the trace, with the Hessian
    stack of dphi.  M takes a field u of grid.num_points entries (raveled)
    to the step: it solves c Lap, with c = mean(w tr K)/n the mean of the n
    diagonal rows of WK, and moves the mean of u into db,
        M u = (Lap^{-1}(u - mean u) / c, -mean u / mean w).
    M is a Fourier multiplier and a constant has no Hessian, so
        A M u = Re tr(WK/c Hess Lap^{-1} u) + (mean u / mean w) w:
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
        uhat = rfft_active(u.reshape(grid.shape), grid)
        row = np.einsum("k...,k...->...", C, irfft_active(P * uhat, grid, 1))
        row += (uhat[zero].real / npts / wmean) * w
        return row.ravel()

    def apply_M(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        uhat = rfft_active(u.reshape(grid.shape), grid)
        db = -uhat[zero].real / npts / wmean
        uhat *= 1.0 / c
        out = irfft_active(Q * uhat, grid, 1)
        dH = np.zeros((n * n,) + grid.shape)
        dH[rows] = out[1:]
        return out[0], dH, db

    return LinearOperator((npts, npts), matvec=apply_AM, dtype=np.float64), apply_M


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


def _initial_phi(grid: PeriodicGrid, initial_phi) -> np.ndarray | None:
    """initial_phi as a real field of mean zero, or None for None.
    ValueError unless it has the grid's shape and finite entries."""
    if initial_phi is None:
        return None
    phi = np.array(initial_phi, dtype=np.float64)
    if phi.shape != grid.shape:
        raise ValueError(f"initial_phi has shape {phi.shape}, the grid {grid.shape}")
    if not np.isfinite(phi).all():
        raise ValueError("initial_phi has non-finite entries")
    return phi - phi.mean()


def _line_search(residual_fn, H, dH, b, db, res):
    """Backtracking on the step: 1, 1/2, ... down to MIN_STEP, the first
    whose trial residual_fn(H + step dH, b + step db) is admissible (not
    None) with the Armijo decrease of max|R| from res.  Returns (step,
    H + step dH, R, state, max|R|) of that trial, or None when no step
    passes."""
    step = 1.0
    while step >= MIN_STEP:
        H_new = H + step * dH
        trial = residual_fn(H_new, b + step * db)
        if trial is not None:
            R, state = trial
            res_new = float(np.max(np.abs(R)))
            if res_new < res * (1.0 - ARMIJO * step):
                return step, H_new, R, state, res_new
        step *= 0.5
    return None


def _newton_loop(grid, cfg, lhs_fn, coefficients_fn, phi0, F, detg):
    """Damped Newton iteration over (phi, b) for the equation
        lhs(H) = e^{F+b} det g,
    with H the hermitian_hessian_stack of phi.  phi0 None starts from
    phi = 0, whose H is zero; another start (a mean-zero phi0 from
    _initial_phi) takes one transform pair for H.  b starts at
    b0 = log(mean det g / mean e^F det g), and the residual is
    R = lhs - e^b e^F det g.

    lhs_fn(H) returns (lhs, state), state being whatever coefficients_fn
    needs, or None for an inadmissible iterate (positivity lost).
    coefficients_fn(state) returns the real stack WK of w K and the weight
    field w of the linearised residual
        (dphi, db) -> w Re tr(K Hess dphi) - db w;
    its db term -w is exact at a solution, where e^b e^F det g = w.
    GMRES solves the system right-preconditioned, A M u = -R, over fields u
    of grid.num_points entries, by _make_system's A M, and the step is
    (dphi, db) = M u: M sends the mean of u to db.  M inverts c times
    the flat Laplacian, c = mean(w tr K)/n, the mean of the n diagonal rows
    of WK.  Each GMRES iteration makes one rfft_active and one irfft_active
    batched over the Hessian rows that are not identically zero.  The apply
    of M gives the Hessian stack dH of the step from its own transform pair,
    so H is carried along with phi, and a line-search trial is
    lhs_fn(H + step dH): the residuals make no transform.
    GMRES stops at the relative tolerance _forcing_term picks from the last
    two residuals: loose while Newton is far from the solution, tighter as
    it converges quadratically.

    Raises SolverError, with the residual history and the last iterate, on
    an inadmissible start, a stalled line search, a failed GMRES solve or
    the iteration cap.  Returns (phi, b, state, record), record holding
    MASolution's residual_history, trace, linear_iterations and
    linear_rtols.
    """
    eF_detg = np.exp(F.values.real) * detg

    def residual(H, b):  # (R, state), or None for an inadmissible H
        trial = lhs_fn(H)
        return None if trial is None else (trial[0] - np.exp(b) * eF_detg, trial[1])

    if phi0 is None:
        phi = np.zeros(grid.shape)
        H = np.zeros((grid.n**2,) + grid.shape)
    else:
        phi = phi0
        H = hermitian_hessian_stack(phi, grid)
    b = float(np.log(np.mean(detg) / np.mean(eF_detg)))
    trial = residual(H, b)
    if trial is None:
        raise SolverError("initial iterate is not admissible (positivity lost)", [], phi, b)
    R, state = trial
    res = float(np.max(np.abs(R)))
    history = [res]
    trace = [(0, res, b, 0.0)]
    linear_iterations, linear_rtols = [], []
    rtol = None  # the forcing term of the previous Newton step

    for _ in range(cfg.max_iterations):
        if res <= cfg.tolerance:
            break
        WK, w = coefficients_fn(state)
        # the state is read only here: neither it nor the trial tuple that
        # holds it is kept through GMRES
        del state, trial
        AM, apply_M = _make_system(grid, WK, w)
        rhs = -R.ravel()
        rtol = _forcing_term(rtol, res, history[-2] if len(history) > 1 else None, cfg.tolerance)
        u, info, iterations = gmres(AM, rhs, rtol=rtol, maxiter=LINEAR_MAXITER)
        if info != 0:
            raise SolverError(f"linear solve failed (gmres info={info})", history, phi, b)
        linear_iterations.append(iterations)
        linear_rtols.append(rtol)
        dphi, dH, db = apply_M(u)
        dphi = dphi - dphi.mean()
        trial = _line_search(residual, H, dH, b, db, res)
        if trial is None:
            raise SolverError("line search stalled (positivity or descent loss)", history, phi, b)
        step, H, R, state, res = trial
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
    phi0 = _initial_phi(grid, initial_phi)
    S_g = g.stack

    def lhs(H):
        S = S_g + H
        minors = stack_minors(S)
        if not minors_positive(minors):
            return None
        return minors[-1], (S, minors[-1])

    def coefficients(state):
        S, detgt = state
        return stack_adjugate(S), detgt

    detg = stack_minors(S_g)[-1]
    phi, b, state, record = _newton_loop(grid, cfg, lhs, coefficients, phi0, F, detg)
    # lhs() checked the positivity of the stack
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
    phi0 = _initial_phi(grid, initial_phi)
    S_g, S_g0 = g.stack, g0.stack
    # P(X) = 1/2 M(X, g0)
    column0 = constant_column(S_g0)
    if column0 is None:
        d_omega0 = kahler_excess(S_g0, grid, KAHLER_TOL)
        if d_omega0 is not None:
            raise MetricError(
                f"reference metric is not Kahler: max|d omega0| = {d_omega0:.6e} > KAHLER_TOL = {KAHLER_TOL:g}"
            )
        adj_g0 = stack_adjugate(S_g0)

        def P(X):
            return 0.5 * _polarised_adjugate(X, S_g0, adj_g0)

    else:
        # a constant g0 is Kahler exactly; column p of T/2 is P of the p-th
        # unit stack, the nine unit stacks taken as nine points
        B = np.repeat(column0[:, None], 9, axis=1)
        half_T = 0.5 * _polarised_adjugate(np.eye(9), B, stack_adjugate(B))

        def P(X):
            return (half_T @ X.reshape(9, -1)).reshape(X.shape)

    adj_g = stack_adjugate(S_g)

    def lhs(H):
        lam = adj_g + P(H)
        adj_lam = stack_adjugate(lam)
        # Sylvester's test on the leading minors Lambda_11, adj(Lambda)_33
        # and det Lambda, all three from adj Lambda
        det = stack_det_from_adjugate(lam, adj_lam)
        if not minors_positive([lam[0], adj_lam[2], det]):
            return None
        dets = np.sqrt(det)  # det of the root metric
        return dets, (adj_lam, dets)

    def coefficients(state):
        adj_lam, dets = state
        WK = P(adj_lam)
        WK /= 2.0 * dets
        return WK, dets

    detg = stack_det_from_adjugate(S_g, adj_g)
    phi, b, state, record = _newton_loop(grid, cfg, lhs, coefficients, phi0, F, detg)
    adj_lam, dets = state
    # adj Lambda / det(Lambda)^{1/2}, positive definite as Lambda is
    metric_out = HermitianMetricField._unchecked(grid, adj_lam / dets)
    return MASolution(ScalarField(grid, phi), b, metric_out=metric_out, **record)
