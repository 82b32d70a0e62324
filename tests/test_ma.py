from collections import Counter

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as scipy_linalg

from hermweb.forms import FormField, d_max_norm, ddbar, wedge, wedge_power
from hermweb.grid import PeriodicGrid, ScalarField, hermitian_hessian_stack, hessian_values
from hermweb.metric import (
    HermitianMetricField,
    MetricError,
    chern_ricci,
    classify,
    identity_metric,
    kahler_excess,
    ricci_norm,
    ricci_potential,
)
from hermweb import grid as grid_module
from hermweb import ma as ma_module
from hermweb import metric as metric_module
from hermweb.ma import (
    ETA_MAX,
    FACTORIAL,
    GAMMA,
    KAHLER_TOL,
    LINEAR_RTOL,
    MASolution,
    SolverConfig,
    SolverError,
    form_to_matrix,
    hodge_root,
    matrix_to_form,
    solve_ma2,
    solve_ma3,
    volume_coefficient,
    _forcing_term,
    _make_system,
)

from hermweb import smallmat as smallmat_module
from hermweb.smallmat import hermitian_from_stack, hermitian_stack, stack_adjugate

from helpers import (
    brute_wedge,
    complex_newton_row,
    complex_preconditioner,
    form_to_generators,
    hermitian_part,
    max_diff_generators,
    assert_carries_its_stack,
    random_bandlimited,
    random_metric,
    refuse_hermitian_stack,
    uniqueness_probe,
)


def adjugate(a: np.ndarray) -> np.ndarray:
    return np.linalg.inv(a) * np.linalg.det(a)[..., None, None]


def constant_metric(grid, mat) -> HermitianMetricField:
    g = np.broadcast_to(np.asarray(mat, dtype=np.complex128), grid.shape + mat.shape).copy()
    return HermitianMetricField(grid, g)


def random_pd_matrix(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T + n * np.eye(n)


# ---------------------------------------------------------------------------
# the (n-1,n-1) <-> matrix correspondence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_form_to_matrix_is_adjugate(n):
    grid = PeriodicGrid(n, (8, 1) * n)
    rng = np.random.default_rng(n)
    G = random_pd_matrix(n, rng)
    g = constant_metric(grid, G)
    omega_pow = wedge_power(g.fundamental_form(), n - 1)
    got = form_to_matrix(omega_pow)
    expected = adjugate(G[None, None, None, None] if n == 2 else G[(None,) * 6])
    assert np.max(np.abs(got - np.broadcast_to(adjugate(G), got.shape))) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_matrix_to_form_round_trip(n):
    grid = PeriodicGrid(n, (8, 1) * n)
    rng = np.random.default_rng(10 + n)
    lam = np.broadcast_to(random_pd_matrix(n, rng), grid.shape + (n, n)).copy()
    back = form_to_matrix(matrix_to_form(grid, lam))
    assert np.max(np.abs(back - lam)) < 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_hodge_root_round_trip(n):
    grid = PeriodicGrid(n, (8, 1) * n)
    rng = np.random.default_rng(20 + n)
    G = random_pd_matrix(n, rng)
    g = constant_metric(grid, G)
    omega_pow = wedge_power(g.fundamental_form(), n - 1)
    back = hodge_root(omega_pow)
    assert np.max(np.abs(back.g - g.g)) < 1e-10


def test_hodge_root_carries_the_stack_of_its_root():
    grid = PeriodicGrid(3, (8, 1, 1, 8, 1, 1))
    g = random_metric(grid, np.random.default_rng(24), amp=0.1)
    assert_carries_its_stack(hodge_root(wedge_power(g.fundamental_form(), 2)))


def test_hodge_root_diag_149():
    # Lambda = adj(diag(1,4,9)) = diag(36, 9, 4); the root solves
    # (det Lambda)^{1/2} Lambda^{-1} = diag(36*9*4)^{1/2} diag(1/36,1/9,1/4)
    #                                = 36 diag(1/36, 1/9, 1/4) = diag(1, 4, 9).
    grid = PeriodicGrid(3, (8, 1, 1, 8, 1, 1))
    lam = np.zeros(grid.shape + (3, 3), dtype=np.complex128)
    lam[..., 0, 0], lam[..., 1, 1], lam[..., 2, 2] = 1.0, 4.0, 9.0
    root = hodge_root(matrix_to_form(grid, lam))
    expected = np.diag([6.0, 1.5, 2.0 / 3.0])
    assert np.max(np.abs(root.g - expected)) < 1e-12
    # and the forward direction, checked against the brute-force wedge oracle:
    omega_pow = wedge_power(root.fundamental_form(), 2)
    oracle = brute_wedge(
        form_to_generators(root.fundamental_form()),
        form_to_generators(root.fundamental_form()),
    )
    assert max_diff_generators(form_to_generators(omega_pow), oracle) < 1e-12
    assert np.max(np.abs(form_to_matrix(omega_pow) - lam)) < 1e-12


def test_volume_coefficient_against_oracle():
    # omega_flat^n = n! * prod_m (i dz_m dzbar_m), so the top coefficient is
    # n! * volume_coefficient(n); the wedge itself is the oracle here
    for n in (2, 3):
        grid = PeriodicGrid(n, (8, 1) * n)
        omega = identity_metric(grid).fundamental_form()
        top = wedge_power(omega, n)
        key = (tuple(range(n)), tuple(range(n)))
        assert np.allclose(top.coefficient(*key), FACTORIAL[n] * volume_coefficient(n))


# ---------------------------------------------------------------------------
# solve_ma2
# ---------------------------------------------------------------------------

def manufactured_problem(grid, rng, amp=0.05):
    """Build (g, F, phi_star, b_star) with known solution phi_star."""
    g = random_metric(grid, rng, amp=amp, kmax=1)
    phi_star = random_bandlimited(grid, rng, amp=amp / 10.0, kmax=1).real
    phi_star -= phi_star.mean()
    H = hessian_values(phi_star.astype(np.complex128), grid)
    gt = HermitianMetricField(grid, g.g + H)
    b_star = -0.35
    F = np.log(gt.det().real / g.det().real) - b_star
    return g, ScalarField(grid, F.astype(np.complex128)), phi_star, b_star


def two_bump_problem():
    """(g, F) on 16^2 with g_11 = 1 + 0.6 cos 2 pi x2, g_22 = 1 + 0.6 cos 2 pi x1
    and F = 3 cos 2 pi x1 cos 2 pi x2: far enough from the solution that the
    line search shortens steps, and GMRES restarts on some Newton steps."""
    grid = PeriodicGrid(2, (16, 16, 1, 1))
    x1, x2 = (grid.coordinate(grid.axis_of("x", i)) for i in (1, 2))
    g = np.zeros(grid.shape + (2, 2), dtype=np.complex128)
    g[..., 0, 0] = 1 + 0.6 * np.cos(2 * np.pi * x2)
    g[..., 1, 1] = 1 + 0.6 * np.cos(2 * np.pi * x1)
    F = np.broadcast_to(3 * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2), grid.shape)
    return HermitianMetricField(grid, g), ScalarField(grid, F.astype(np.complex128))


def test_solve_ma2_manufactured():
    grid = PeriodicGrid(2, (32, 32, 1, 1))
    rng = np.random.default_rng(0)
    g, F, phi_star, b_star = manufactured_problem(grid, rng)
    sol = solve_ma2(g, F)
    err = np.max(np.abs(sol.phi.values.real - phi_star))
    assert err < 1e-10
    assert abs(sol.b - b_star) < 1e-10
    assert sol.residual_history[-1] < 1e-11
    assert sol.iterations <= 10


def test_solve_ma2_residual_verifiable():
    # det(g + H(phi)) = e^{F+b} det g pointwise, recomputed from the outputs
    grid = PeriodicGrid(2, (32, 1, 32, 1))
    rng = np.random.default_rng(1)
    g = random_metric(grid, rng, amp=0.1, kmax=1)
    F = ricci_potential(g)
    sol = solve_ma2(g, F)
    H = hessian_values(sol.phi.values, grid)
    lhs = HermitianMetricField(grid, g.g + H).det().real
    rhs = np.exp(F.values.real + sol.b) * g.det().real
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    assert ricci_norm(sol.metric_out) < 1e-8


def test_solve_ma2_trace_and_history_align():
    grid = PeriodicGrid(2, (32, 32, 1, 1))
    rng = np.random.default_rng(2)
    g, F, _, _ = manufactured_problem(grid, rng)
    sol = solve_ma2(g, F)
    assert len(sol.trace) == len(sol.residual_history)
    for (it, res, b, step), hist in zip(sol.trace, sol.residual_history):
        assert res == hist
    assert sol.trace[0][0] == 0 and sol.trace[0][3] == 0.0
    assert all(0 < step <= 1.0 for _, _, _, step in sol.trace[1:])


def test_solve_ma2_line_search_keeps_the_hessian_of_phi():
    # the Newton loop carries the Hessian stack of phi through shortened
    # steps; the output metric is g + Hess phi of the phi it returns
    g, F = two_bump_problem()
    sol = solve_ma2(g, F)
    assert min(step for *_, step in sol.trace[1:]) < 1.0
    assert sol.residual_history[-1] <= SolverConfig().tolerance
    H = hermitian_hessian_stack(sol.phi.values.real, g.grid)
    carried = hermitian_stack(sol.metric_out.g) - hermitian_stack(g.g)
    assert np.max(np.abs(carried - H)) <= 1e-12 * np.max(np.abs(H))


def test_solve_ma2_uniqueness_probe():
    grid = PeriodicGrid(2, (16, 16, 1, 1))
    rng = np.random.default_rng(3)
    g, F, _, _ = manufactured_problem(grid, rng)
    guess_a = np.zeros(grid.shape)
    guess_b = 1e-2 * random_bandlimited(grid, rng, kmax=1).real
    spread = uniqueness_probe(lambda init: solve_ma2(g, F, initial_phi=init), guess_a, guess_b)
    assert spread < 1e-9


def test_solve_ma2_nonconvergence_raises():
    grid = PeriodicGrid(2, (16, 16, 1, 1))
    rng = np.random.default_rng(4)
    g, F, _, _ = manufactured_problem(grid, rng, amp=0.1)
    with pytest.raises(SolverError) as exc_info:
        solve_ma2(g, F, SolverConfig(tolerance=1e-14, max_iterations=1))
    err = exc_info.value
    assert len(err.history) >= 1
    assert err.phi is not None


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    # a NaN tolerance is never met: Newton would run to its round-off floor
    for tol in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(tolerance=tol)


def test_solve_ma2_flat_input_trivial():
    grid = PeriodicGrid(2, (16, 1, 16, 1))
    g = identity_metric(grid)
    sol = solve_ma2(g, ricci_potential(g))
    assert np.max(np.abs(sol.phi.values)) < 1e-12
    assert abs(sol.b) < 1e-12
    assert sol.iterations == 0


# ---------------------------------------------------------------------------
# solve_ma3
# ---------------------------------------------------------------------------

GRID3 = PeriodicGrid(3, (16, 16, 1, 1, 1, 1))


def ma3_manufactured(grid, rng, amp=0.04, g0=None):
    g0 = identity_metric(grid) if g0 is None else g0
    g = random_metric(grid, rng, amp=amp, kmax=1)
    n = grid.n
    phi_star = random_bandlimited(grid, rng, amp=amp / 10.0, kmax=1).real
    phi_star -= phi_star.mean()
    omega = g.fundamental_form()
    correction = wedge(ddbar(ScalarField(grid, phi_star.astype(np.complex128))), g0.fundamental_form())
    target = wedge_power(omega, n - 1) + correction
    gt = hodge_root(target)
    b_star = 0.21
    F = np.log(gt.det().real / g.det().real) - b_star
    return g, g0, ScalarField(grid, F.astype(np.complex128)), phi_star, b_star


def test_solve_ma3_manufactured():
    rng = np.random.default_rng(5)
    g, g0, F, phi_star, b_star = ma3_manufactured(GRID3, rng)
    sol = solve_ma3(g, g0, F)
    assert np.max(np.abs(sol.phi.values.real - phi_star)) < 1e-9
    assert abs(sol.b - b_star) < 1e-9


def test_solve_ma3_manufactured_non_identity_reference():
    # a constant Hermitian reference is Kahler; off-diagonal entries exercise
    # every slot of the polarised adjugate against the form-path oracle
    G0 = np.array(
        [[1.3, 0.2 - 0.1j, 0.05j], [0.2 + 0.1j, 0.9, -0.15], [-0.05j, -0.15, 1.1]]
    )
    rng = np.random.default_rng(8)
    g, g0, F, phi_star, b_star = ma3_manufactured(GRID3, rng, g0=constant_metric(GRID3, G0))
    sol = solve_ma3(g, g0, F)
    assert np.max(np.abs(sol.phi.values.real - phi_star)) < 1e-9
    assert abs(sol.b - b_star) < 1e-9


def test_lambda_matches_form_path():
    # adj g + M(Hess phi, g0) / 2 is the matrix of omega^2 + i ddbar phi ^ omega_0;
    # the left side as solve_ma3 computes it, on real stacks
    grid = PeriodicGrid(3, (8, 8, 1, 1, 8, 1))
    rng = np.random.default_rng(9)
    g = random_metric(grid, rng, amp=0.1, kmax=1)
    g0 = random_metric(grid, rng, amp=0.1, kmax=1)
    phi = random_bandlimited(grid, rng, amp=0.05, kmax=2).real.astype(np.complex128)
    S0 = hermitian_stack(g0.g)
    M = ma_module._polarised_adjugate(hermitian_hessian_stack(phi.real, grid), S0, stack_adjugate(S0))
    lam = hermitian_from_stack(stack_adjugate(hermitian_stack(g.g)) + M / 2)
    oracle = form_to_matrix(
        wedge_power(g.fundamental_form(), 2) + wedge(ddbar(ScalarField(grid, phi)), g0.fundamental_form())
    )
    assert np.max(np.abs(lam - oracle)) < 1e-13 * np.max(np.abs(oracle))


def test_solve_ma3_ricci_flat_output():
    rng = np.random.default_rng(6)
    g = random_metric(GRID3, rng, amp=0.05, kmax=1)
    sol = solve_ma3(g, identity_metric(GRID3), ricci_potential(g))
    assert ricci_norm(sol.metric_out) < 1e-8


def test_solve_ma3_from_identity_metric_runs_no_metric_check(monkeypatch):
    # the reference and the output are built from stacks; only a field from
    # outside takes the public constructor's checks
    g = random_metric(GRID3, np.random.default_rng(6), amp=0.05, kmax=1)
    F = ricci_potential(g)
    checks = []
    post_init = HermitianMetricField.__post_init__
    monkeypatch.setattr(HermitianMetricField, "__post_init__", lambda self: checks.append(1) or post_init(self))
    sol = solve_ma3(g, identity_metric(GRID3), F)
    assert checks == [] and sol.metric_out.grid == GRID3


def test_solve_ma3_rejects_wrong_dimension():
    grid = PeriodicGrid(2, (8, 8, 1, 1))
    g = identity_metric(grid)
    with pytest.raises(MetricError):
        solve_ma3(g, g, ricci_potential(g))


def test_solve_ma3_rejects_non_kahler_reference():
    x2 = GRID3.coordinate(GRID3.axis_of("x", 2))
    gref = np.zeros(GRID3.shape + (3, 3), dtype=np.complex128)
    for i in range(3):
        gref[..., i, i] = 1.0
    gref[..., 0, 0] = 1.0 + 0.5 * np.cos(2 * np.pi * x2)
    g0 = HermitianMetricField(GRID3, gref)
    g = identity_metric(GRID3)
    with pytest.raises(MetricError):
        solve_ma3(g, g0, ricci_potential(g))


# x_1, x_2 and y_1 active: the reference varies along a complex direction's
# x and y axes and along a second direction
GRID_XY = PeriodicGrid(3, (8, 8, 1, 8, 1, 1))


def kahler_reference_plus(grid, d_omega0):
    """g0 = I + Hess f + eps P with P = cos(2 pi x_2) on the (1,1) entry, not
    Kahler, and eps scaled so that the form oracle's max|d omega0| is
    d_omega0 (0 gives the Kahler I + Hess f)."""
    f = random_bandlimited(grid, np.random.default_rng(12), amp=0.003, kmax=1).real
    g0 = np.eye(3) + hermitian_part(hessian_values(f.astype(np.complex128), grid))
    P = np.cos(2 * np.pi * grid.coordinate(grid.axis_of("x", 2)))
    eps = d_omega0 / d_max_norm(FormField(grid, 1, 1, {((0,), (0,)): 1j * P}))
    g0[..., 0, 0] += eps * P
    return HermitianMetricField(grid, g0)


@pytest.mark.parametrize("d_omega0, accepted", [(1e-9, False), (1e-11, True)])
def test_kahler_tol_is_a_bound_on_max_d_omega0(d_omega0, accepted):
    # KAHLER_TOL = 1e-10 bounds the form oracle's max|d omega0| of a reference
    # that is Kahler up to a small non-Kahler perturbation
    g0 = kahler_reference_plus(GRID_XY, d_omega0)
    assert d_max_norm(g0.fundamental_form()) == pytest.approx(d_omega0, rel=1e-3)
    g = random_metric(GRID_XY, np.random.default_rng(13), amp=0.05, kmax=1)
    if accepted:
        sol = solve_ma3(g, g0, ricci_potential(g))
        assert sol.residual_history[-1] <= SolverConfig().tolerance
    else:
        # the rejection states the max|d omega0| it computed
        with pytest.raises(MetricError, match="not Kahler") as rejected:
            solve_ma3(g, g0, ricci_potential(g))
        stated = re.search(r"max\|d omega0\| = (\S+)", str(rejected.value))
        assert float(stated.group(1)) == pytest.approx(d_omega0, rel=1e-3)


def test_solve_ma3_with_a_non_constant_kahler_reference(monkeypatch):
    # g0 = I + Hess f recovers the manufactured potential, and the Kahler
    # check, like the whole solve, makes no complex FFT
    g0 = kahler_reference_plus(GRID_XY, 0.0)
    assert np.ptp(g0.g[..., 0, 0].real) > 1e-2
    g, g0, F, phi_star, b_star = ma3_manufactured(GRID_XY, np.random.default_rng(14), g0=g0)
    calls = []
    for name in ("fftn", "ifftn"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
    sol = solve_ma3(g, g0, F)
    assert calls == []
    assert np.max(np.abs(sol.phi.values.real - phi_star)) < 1e-9
    assert abs(sol.b - b_star) < 1e-9


def test_solve_ma2_rejects_a_potential_on_another_grid():
    g = identity_metric(PeriodicGrid(2, (16, 16, 1, 1)))
    # numpy could not broadcast the first F and would broadcast the second
    for sizes in [(32, 32, 1, 1), (16, 1, 1, 1)]:
        F = ScalarField(PeriodicGrid(2, sizes), np.zeros(sizes))
        with pytest.raises(MetricError, match=r"^F lives on grid"):
            solve_ma2(g, F)


def test_solve_ma3_rejects_a_reference_or_potential_on_another_grid():
    g = identity_metric(GRID3)
    other = PeriodicGrid(3, (16, 1, 1, 1, 1, 1))
    with pytest.raises(MetricError, match=r"^g0 lives on grid"):
        solve_ma3(g, identity_metric(other), ricci_potential(g))
    with pytest.raises(MetricError, match=r"^F lives on grid"):
        solve_ma3(g, g, ScalarField(other, np.zeros(other.shape)))


def test_solve_ma3_preserves_balanced():
    # start from a balanced non-Kahler metric built via the Michelsohn root
    rng = np.random.default_rng(7)
    chi = random_bandlimited(GRID3, rng, amp=0.004, kmax=1).real
    omega0 = identity_metric(GRID3).fundamental_form()
    base = wedge_power(omega0, 2).scaled(0.5)
    target = base + wedge(ddbar(ScalarField(GRID3, chi.astype(np.complex128))), omega0)
    g = hodge_root(target)
    rep_in = classify(g, 1e-8)
    assert rep_in.balanced
    sol = solve_ma3(g, identity_metric(GRID3), ricci_potential(g))
    rep_out = classify(sol.metric_out, 1e-6)
    assert rep_out.balanced
    assert rep_out.gauduchon


# ---------------------------------------------------------------------------
# the right-preconditioned Newton operator A M and the preconditioner M
# ---------------------------------------------------------------------------

# (16, 1, 1, 16) zeroes the Re row, the x-only grids the Im rows, and
# (8, 8, 8, 8, 1, 8) no row
OPERATOR_GRIDS = [(2, (64, 64, 1, 1)), (2, (16, 1, 1, 16)), (3, (16, 16, 16, 1, 1, 1)), (3, (8, 8, 8, 8, 1, 8))]


def newton_system(n, sizes, seed):
    """A grid, a random Hermitian K, a weight w, the system of _make_system
    for the stack of w K, its preconditioner constant c and a vector u."""
    grid = PeriodicGrid(n, sizes)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal(grid.shape + (n, n)) + 1j * rng.standard_normal(grid.shape + (n, n))
    K = A + np.conj(np.swapaxes(A, -1, -2))
    w = rng.uniform(0.5, 2.0, grid.shape)
    u = rng.standard_normal(grid.num_points + 1)
    WK = w * hermitian_stack(K)
    c = float(np.mean(WK[:n]))
    return grid, K, w, _make_system(grid, WK, w), c, u


@pytest.mark.parametrize("n, sizes", OPERATOR_GRIDS)
def test_newton_operator_matches_complex_form(n, sizes):
    grid, K, w, (AM, _), c, u = newton_system(n, sizes, sum(sizes))
    out = AM.matvec(u)
    Mu = complex_preconditioner(grid, c, w, u)
    expected = complex_newton_row(grid, K, w, Mu)
    assert np.max(np.abs(out[:-1] - expected.ravel())) <= 1e-12 * np.max(np.abs(expected))
    assert out[-1] == u[-1] == pytest.approx(Mu[:-1].mean(), abs=1e-15)


@pytest.mark.parametrize("n, sizes", OPERATOR_GRIDS)
def test_preconditioner_matches_complex_form(n, sizes):
    # M u = (dphi, db), and the Hessian stack of dphi from the same transforms
    grid, _, w, (_, apply_M), c, u = newton_system(n, sizes, sum(sizes) + 1)
    dphi, dH, db = apply_M(u)
    out = np.concatenate([dphi.ravel(), [db]])
    expected = complex_preconditioner(grid, c, w, u)
    assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))
    H = hermitian_hessian_stack(dphi, grid)
    assert dH.shape == H.shape
    assert np.max(np.abs(dH - H)) <= 1e-12 * np.max(np.abs(H))


class _CountingFFT:
    """numpy.fft with every call counted by function name."""

    def __init__(self, counts: Counter):
        self._counts = counts

    def __getattr__(self, name):
        fn = getattr(np.fft, name)

        def counted(*args, **kwargs):
            self._counts[name] += 1
            return fn(*args, **kwargs)

        return counted


class _NumpyView:
    def __init__(self, fft):
        self.fft = fft

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("solver", ["ma2", "ma3"])
def test_solvers_make_one_real_transform_pair_per_apply(solver, monkeypatch):
    rng = np.random.default_rng(0)
    if solver == "ma2":
        # on x1, x2 the Hessian rows that are not zero are H_11, H_22, Re H_12
        g, F, _, _ = manufactured_problem(PeriodicGrid(2, (16, 16, 1, 1)), rng)
        solve = lambda: solve_ma2(g, F)
        hessian_rows = 3
    else:
        # on x1, x2, x3 they are the three diagonal rows and the three Re rows
        g, g0, F, _, _ = ma3_manufactured(PeriodicGrid(3, (8, 8, 8, 1, 1, 1)), rng)
        solve = lambda: solve_ma3(g, g0, F)
        hessian_rows = 6
    counts = Counter()
    view = _NumpyView(_CountingFFT(counts))
    monkeypatch.setattr(grid_module, "np", view)
    monkeypatch.setattr(ma_module, "np", view)
    inverse_rows = []
    real_irfft_active = ma_module.irfft_active

    def irfft_active(spectrum, grid, offset=0):
        inverse_rows.append(spectrum.shape[0] if offset else None)
        return real_irfft_active(spectrum, grid, offset)

    monkeypatch.setattr(ma_module, "irfft_active", irfft_active)
    per_apply = {"AM": [], "M": [], "kahler": []}
    M_per_system = []
    real_make_system = ma_module._make_system

    def counted(kind, fn):
        def apply(*args):
            before = counts.copy()
            rows_before = len(inverse_rows)
            out = fn(*args)
            per_apply[kind].append((counts - before, inverse_rows[rows_before:]))
            if kind == "M":
                M_per_system[-1] += 1
            return out

        return apply

    def make_system(grid, WK, w):
        AM, apply_M = real_make_system(grid, WK, w)
        M_per_system.append(0)
        return (
            ma_module.LinearOperator(AM.shape, matvec=counted("AM", AM.matvec), dtype=AM.dtype),
            counted("M", apply_M),
        )

    real_gmres = ma_module.gmres

    def gmres(A, b, **kwargs):
        assert kwargs.get("M") is None
        return real_gmres(A, b, **kwargs)

    monkeypatch.setattr(ma_module, "_make_system", make_system)
    monkeypatch.setattr(ma_module, "gmres", gmres)
    # solve_ma3's Kahler check of g0 sees a constant stack
    monkeypatch.setattr(ma_module, "kahler_excess", counted("kahler", ma_module.kahler_excess))
    sol = solve()
    # one grid.rfft_active/irfft_active pair: an rfft and an irfft, each with
    # one complex 1-D pass per further active axis
    axes = len(g.grid.active_axes)
    pair = Counter(rfft=1, fft=axes - 1, ifft=axes - 1, irfft=1)
    # A M inverts one stack, batched over the Hessian rows that are not
    # zero; M inverts the step and the same rows of its Hessian stack
    assert per_apply["AM"] and all(c == pair and rows == [hessian_rows] for c, rows in per_apply["AM"])
    assert per_apply["M"] and all(c == pair and rows == [1 + hessian_rows] for c, rows in per_apply["M"])
    # M once per Newton step, after its GMRES solve
    assert M_per_system == [1] * sol.iterations
    # every transform is inside an apply or the Kahler check: none in the
    # residuals, whose Hessian stacks are carried from the applies of M
    # the check of the constant g0 = I makes no transform
    assert per_apply["kahler"] == ([(Counter(), [])] if solver == "ma3" else [])
    assert sum((c for c, _ in sum(per_apply.values(), [])), Counter()) == counts
    assert counts["fftn"] == counts["ifftn"] == counts["rfftn"] == counts["irfftn"] == 0


# ---------------------------------------------------------------------------
# solve_ma3's Kahler check of the reference: the spectral bound, then the max
# ---------------------------------------------------------------------------

# OPERATOR_GRIDS and a grid whose third complex direction is collapsed
KAHLER_CHECK_GRIDS = OPERATOR_GRIDS + [(3, (16, 16, 1, 16, 1, 1))]


@pytest.mark.parametrize("n, sizes", KAHLER_CHECK_GRIDS)
def test_kahler_check_bound_is_at_least_the_kahler_residual(n, sizes):
    # the check accepts on the bound without the inverse transform, so the
    # bound must not fall below max|del omega|, Nyquist modes included
    # (kmax = 4 on 8-point axes)
    grid = PeriodicGrid(n, sizes)
    rng = np.random.default_rng(sum(sizes))
    for kmax in (1, 2, 4) * 2:
        g = random_metric(grid, rng, amp=0.1, kmax=kmax)
        exact = classify(g, 1.0).kahler_residual
        (X,) = metric_module._residual_spectra(g.stack, grid, False)
        bound = metric_module._spectral_bound(X, grid)
        assert 1e-3 < exact <= bound
        # above the bound the check accepts at once, between the two after
        # the inverse transform, and below both it returns the max
        assert kahler_excess(g.stack, grid, bound) is None
        assert kahler_excess(g.stack, grid, 0.5 * (exact + bound)) is None
        assert kahler_excess(g.stack, grid, 0.5 * exact) == exact


@pytest.mark.parametrize("sizes", [(16, 16, 16, 1, 1, 1), (8, 8, 1, 8, 1, 1), (8, 8, 8, 8, 1, 8)])
@pytest.mark.parametrize("kind", ["identity", "hessian"])
def test_kahler_references_cost_no_inverse_transform(sizes, kind, monkeypatch):
    # the flat metric is constant and passes with no transform; a
    # band-limited I + Hess f passes on the spectral bound: one rfft_active
    # of the stack of g0 and no irfft_active
    grid = PeriodicGrid(3, sizes)
    g0 = identity_metric(grid)
    if kind == "hessian":
        f = random_bandlimited(grid, np.random.default_rng(sum(sizes)), amp=0.01, kmax=1).real
        g0 = HermitianMetricField(grid, g0.g + hermitian_part(hessian_values(f.astype(np.complex128), grid)))
        assert np.ptp(g0.g[..., 0, 0].real) > 1e-2
    calls = count_transforms(monkeypatch)
    assert kahler_excess(g0.stack, grid, KAHLER_TOL) is None
    assert calls == (["rfft_active"] if kind == "hessian" else [])


def count_transforms(monkeypatch):
    """The rfft_active and irfft_active calls metric makes, in order."""
    calls = []
    for name in ("rfft_active", "irfft_active"):
        fn = getattr(grid_module, name)
        monkeypatch.setattr(metric_module, name, lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
    return calls


def test_constant_reference_is_accepted_without_a_transform(monkeypatch):
    # a constant g0 that is not the identity, with a complex g12: d omega0 = 0
    # at k = 0, where every derivative symbol is zero
    G0 = np.diag([2.0, 1.0, 3.0]).astype(np.complex128)
    G0[0, 1], G0[1, 0] = 0.3 - 0.2j, 0.3 + 0.2j
    g0 = constant_metric(GRID3, G0)
    assert classify(g0, 1.0).kahler_residual == 0.0
    calls = count_transforms(monkeypatch)
    assert kahler_excess(g0.stack, GRID3, KAHLER_TOL) is None
    g = random_metric(GRID3, np.random.default_rng(21), amp=0.05, kmax=1)
    sol = solve_ma3(g, g0, ricci_potential(g))
    assert sol.residual_history[-1] <= SolverConfig().tolerance
    assert calls == []


def test_reference_constant_but_at_one_point_is_checked(monkeypatch):
    # one point off the constant makes the stack non-constant: the check
    # transforms it and rejects the spike, which is not Kahler
    S = constant_metric(GRID3, np.diag([2.0, 1.0, 3.0]).astype(np.complex128)).stack.copy()
    S[0, 3, 5] += 0.1
    calls = count_transforms(monkeypatch)
    d_omega0 = kahler_excess(S, GRID3, KAHLER_TOL)
    assert calls == ["rfft_active", "irfft_active"]
    assert d_omega0 == pytest.approx(classify(HermitianMetricField.from_stack(GRID3, S), 1.0).kahler_residual, rel=1e-12)
    assert d_omega0 > 1e-3


def test_solve_ma3_takes_one_adjugate_of_lambda_per_iterate(monkeypatch):
    # 2 adjugates of g and g0, 1 of Lambda per residual (the start, each
    # accepted step and each backtrack), 1 of adj Lambda + g0 per
    # coefficient field and 2 per step's lift of dH; no stack_minors
    calls = Counter()

    def counted(name):
        fn = getattr(ma_module, name)
        return lambda *a: calls.update([name]) or fn(*a)

    for name in ("stack_adjugate", "stack_minors"):
        monkeypatch.setattr(ma_module, name, counted(name))
    problems = [ma3_manufactured(GRID3, np.random.default_rng(31))[:3]]
    # a Ricci-flat solve whose first step backtracks once
    g = random_metric(GRID3, np.random.default_rng(53), amp=0.2, kmax=1)
    problems.append((g, identity_metric(GRID3), ricci_potential(g)))
    for g, g0, F in problems:
        calls.clear()
        sol = solve_ma3(g, g0, F)
        backtracks = sum(round(-np.log2(step)) for _, _, _, step in sol.trace[1:])
        assert calls["stack_minors"] == 0
        assert calls["stack_adjugate"] == 3 + 4 * sol.iterations + backtracks
    assert backtracks == 1


# ---------------------------------------------------------------------------
# GMRES against scipy's, the test-only oracle
# ---------------------------------------------------------------------------

def preconditioned_system(n, seed):
    """A random non-symmetric A, a preconditioner M near A^{-1} and b."""
    rng = np.random.default_rng(seed)
    A = 2.0 * np.eye(n) + rng.normal(size=(n, n)) / np.sqrt(n)
    M = np.linalg.inv(A + 0.5 * rng.normal(size=(n, n)) / np.sqrt(n))
    return A, M, rng.normal(size=n)


def test_givens_rotation_matches_lapack_lartg():
    from scipy.linalg import get_lapack_funcs

    lartg = get_lapack_funcs("lartg", dtype=np.float64)
    rng = np.random.default_rng(0)
    pairs = [(0.0, 0.0), (-2.0, 0.0), (0.0, -2.0), (3.0, -4.0), (-4.0, 3.0)]
    pairs += [tuple(rng.normal(size=2) * 10.0 ** rng.uniform(-200, 200, size=2)) for _ in range(2000)]
    for f, g in pairs:
        want = tuple(float(t) for t in lartg(f, g))
        got = ma_module._givens(float(f), float(g))
        if all(ma_module._RTMIN < abs(t) < ma_module._RTMAX for t in (f, g)) or 0.0 in (f, g):
            assert got == want
        else:
            assert np.allclose(got, want, rtol=1e-15, atol=0.0)


def both_gmres(A, b, **kwargs):
    """(x, info, callback values) from hermweb's gmres and from scipy's, both
    without a preconditioner."""
    n = b.size
    ours, theirs = [], []
    x, info, iterations = ma_module.gmres(
        ma_module.LinearOperator((n, n), matvec=lambda v: A @ v, dtype=np.float64),
        b,
        callback=ours.append,
        callback_type="pr_norm",
        **kwargs,
    )
    assert iterations == len(ours)
    x_ref, info_ref = scipy_linalg.gmres(
        scipy_linalg.LinearOperator((n, n), matvec=lambda v: A @ v, dtype=np.float64),
        b,
        callback=theirs.append,
        callback_type="pr_norm",
        **kwargs,
    )
    return (x, info, np.array(ours)), (x_ref, info_ref, np.array(theirs))


@pytest.mark.parametrize("n, seed", [(5, 0), (5, 1), (300, 2), (300, 3)])
def test_gmres_matches_scipy(n, seed):
    # the Newton solvers' use: (A M) u = b right-preconditioned, x = M u
    A, M, b = preconditioned_system(n, seed)
    (u, info, res), (u_ref, info_ref, res_ref) = both_gmres(A @ M, b, rtol=1e-12, atol=0.0, maxiter=400)
    assert info == info_ref == 0
    if n == 5:
        # the Krylov space is the whole space after n steps: no restart
        assert len(res) <= n
    else:
        assert len(res) > ma_module._LINEAR_RESTART
    assert res.shape == res_ref.shape
    assert np.all(np.abs(res - res_ref) <= 1e-10 * res_ref)
    assert np.max(np.abs(u - u_ref)) < 1e-12 * np.max(np.abs(u_ref))
    assert np.linalg.norm(A @ (M @ u) - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("n, seed, right", [(5, 0, False), (300, 2, False), (300, 3, True)])
def test_gmres_without_a_preconditioner_matches_scipy(n, seed, right):
    # right=True solves (A M) u = b, the right-preconditioned form the
    # Newton solvers use, and maps x = M u
    A, M, b = preconditioned_system(n, seed)
    op = A @ M if right else A
    (u, info, res), (u_ref, info_ref, res_ref) = both_gmres(op, b, rtol=1e-12, atol=0.0, maxiter=400)
    assert info == info_ref == 0
    if n == 5:
        assert len(res) <= n
    else:
        assert len(res) > ma_module._LINEAR_RESTART
    assert res.shape == res_ref.shape
    assert np.all(np.abs(res - res_ref) <= 1e-10 * res_ref)
    assert np.max(np.abs(u - u_ref)) < 1e-12 * np.max(np.abs(u_ref))
    x = M @ u if right else u
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_gmres_breakdown_gives_the_exact_solution():
    # the cyclic shift: the fifth Arnoldi vector is exactly zero
    n = 5
    A = np.roll(np.eye(n), 1, axis=0)
    b = np.eye(n)[0]
    (x, info, res), (x_ref, info_ref, res_ref) = both_gmres(A, b, rtol=1e-12, atol=0.0, maxiter=400)
    assert info == info_ref == 0
    assert res.tolist() == res_ref.tolist() == [1.0, 1.0, 1.0, 1.0, 0.0]
    assert x.tolist() == x_ref.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_gmres_reports_maxiter_when_capped():
    A, _, b = preconditioned_system(300, 4)
    (x, info, res), (x_ref, info_ref, res_ref) = both_gmres(A, b, rtol=1e-14, atol=0.0, maxiter=1)
    assert info == info_ref == 1
    assert len(res) == len(res_ref) == ma_module._LINEAR_RESTART
    assert np.all(np.abs(res - res_ref) <= 1e-10 * res_ref)
    assert np.max(np.abs(x - x_ref)) < 1e-12 * np.max(np.abs(x_ref))


def test_gmres_zero_rhs_returns_zero():
    A, _, _ = preconditioned_system(5, 5)
    op = ma_module.LinearOperator((5, 5), matvec=lambda v: A @ v, dtype=np.float64)
    x, info, iterations = ma_module.gmres(op, np.zeros(5), rtol=1e-10, maxiter=10)
    assert (info, iterations) == (0, 0) and not x.any()


def test_gmres_takes_no_preconditioner_and_only_pr_norm_callbacks():
    A, M, b = preconditioned_system(5, 0)
    op = ma_module.LinearOperator((5, 5), matvec=lambda v: A @ v, dtype=np.float64)
    pre = ma_module.LinearOperator((5, 5), matvec=lambda v: M @ v, dtype=np.float64)
    for kwargs in ({"M": pre}, {"callback_type": "legacy"}):
        with pytest.raises(ValueError, match="M=None"):
            ma_module.gmres(op, b, rtol=1e-10, maxiter=10, **kwargs)


@pytest.mark.parametrize("solver", ["ma2", "ma3"])
def test_solvers_assemble_the_complex_metric_once(solver, monkeypatch):
    # the residuals and Newton coefficients stay on real stacks; the complex
    # (n, n) field is built on the first read of metric_out.g, once
    rng = np.random.default_rng(2)
    if solver == "ma2":
        g, F, _, _ = manufactured_problem(PeriodicGrid(2, (16, 16, 1, 1)), rng)
        solve = lambda: solve_ma2(g, F)
    else:
        g, g0, F, _, _ = ma3_manufactured(GRID3, rng)
        solve = lambda: solve_ma3(g, g0, F)
    calls = []

    def counted(S):
        calls.append(S.shape)
        return hermitian_from_stack(S)

    monkeypatch.setattr(smallmat_module, "hermitian_from_stack", counted)
    sol = solve()
    assert sol.iterations >= 2
    assert calls == []
    assert sol.metric_out.g is sol.metric_out.g
    assert calls == [(g.n * g.n,) + g.grid.shape]


@pytest.mark.parametrize("solver", ["ma2", "ma3"])
def test_solvers_read_the_stacks_their_metrics_carry(solver, monkeypatch):
    # a metric from the constructor carries its real stack, so a solve
    # converts no complex field; its output metric carries the stack it was
    # built from
    rng = np.random.default_rng(2)
    if solver == "ma2":
        g, F, _, _ = manufactured_problem(PeriodicGrid(2, (16, 16, 1, 1)), rng)
        solve = lambda: solve_ma2(g, F)
    else:
        g, g0, F, _, _ = ma3_manufactured(GRID3, rng)
        solve = lambda: solve_ma3(g, g0, F)
    refuse_hermitian_stack(monkeypatch)
    sol = solve()
    monkeypatch.undo()
    assert sol.iterations >= 2
    assert_carries_its_stack(sol.metric_out)


@pytest.mark.parametrize("solver", ["ma2", "ma3"])
def test_linear_iterations_count_each_newton_step(solver, monkeypatch):
    rng = np.random.default_rng(1)
    if solver == "ma2":
        g, F, _, _ = manufactured_problem(PeriodicGrid(2, (16, 16, 1, 1)), rng)
        solve = lambda: solve_ma2(g, F)
    else:
        g, g0, F, _, _ = ma3_manufactured(GRID3, rng)
        solve = lambda: solve_ma3(g, g0, F)
    per_call = []
    real_gmres = ma_module.gmres

    def gmres(A, b, **kwargs):
        per_call.append(0)

        def count(_):
            per_call[-1] += 1

        return real_gmres(A, b, callback=count, callback_type="pr_norm", **kwargs)

    monkeypatch.setattr(ma_module, "gmres", gmres)
    sol = solve()
    assert len(sol.linear_iterations) == sol.iterations >= 1
    assert list(sol.linear_iterations) == per_call
    assert all(its >= 1 for its in per_call)


@pytest.mark.parametrize("solver", ["ma2", "ma3"])
def test_gmres_exit_residual_agrees_with_a_fresh_apply(solver, monkeypatch):
    # the residual GMRES stops on is updated from the stored images A v_j
    # when a cycle stops early, and freshly applied when it runs its full
    # length, before its restart
    if solver == "ma2":
        g, F = two_bump_problem()
        solve = lambda: solve_ma2(g, F)
    else:
        g, g0, F, _, _ = ma3_manufactured(GRID3, np.random.default_rng(1))
        solve = lambda: solve_ma3(g, g0, F)
    restart = ma_module._LINEAR_RESTART
    returns = []
    real_gmres = ma_module.gmres

    def gmres(A, b, **kwargs):
        applies = []

        def matvec(v):
            applies.append(1)
            return A.matvec(v)

        counted = ma_module.LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
        x, info, iterations = real_gmres(counted, b, **kwargs)
        atol = max(kwargs["atol"], kwargs["rtol"] * np.linalg.norm(b))
        returns.append((info, np.linalg.norm(b - A.matvec(x)) / atol, len(applies), iterations))
        return x, info, iterations

    monkeypatch.setattr(ma_module, "gmres", gmres)
    solve()
    assert returns and all(info == 0 for info, *_ in returns)
    assert all(fresh <= 1.0 for _, fresh, _, _ in returns)
    # one apply per iteration and one per restart: every cycle but the last
    # runs its full length on these solves
    assert all(applies == its + (its - 1) // restart for _, _, applies, its in returns)
    if solver == "ma2":
        assert any(its > restart for *_, its in returns)


# ---------------------------------------------------------------------------
# Eisenstat-Walker forcing terms
# ---------------------------------------------------------------------------

def test_forcing_term_first_step_is_eta_max():
    assert _forcing_term(None, 1.0, None, 1e-11) == ETA_MAX


def test_forcing_term_is_gamma_times_the_squared_residual_ratio():
    assert _forcing_term(1e-3, 1e-4, 1e-2, 1e-11) == pytest.approx(GAMMA * 1e-4, rel=1e-15)


@pytest.mark.parametrize("eta_prev, expected", [(0.44, GAMMA * 1e-4), (0.45, GAMMA * 0.45**2)])
def test_forcing_term_safeguard_applies_when_gamma_eta_prev_squared_exceeds_a_tenth(
    eta_prev, expected, monkeypatch
):
    # GAMMA eta_prev^2 is 0.0968 and 0.10125; ETA_MAX lifted so that the
    # safeguarded value is not capped
    monkeypatch.setattr(ma_module, "ETA_MAX", 1.0)
    assert _forcing_term(eta_prev, 1e-4, 1e-2, 1e-11) == pytest.approx(expected, rel=1e-15)


def test_forcing_term_is_capped_at_eta_max():
    # a stalled residual gives GAMMA, a safeguarded one GAMMA eta_prev^2 > 0.1
    assert _forcing_term(0.01, 1e-3, 1e-3, 1e-11) == ETA_MAX
    assert _forcing_term(0.45, 1e-4, 1e-2, 1e-11) == ETA_MAX


def test_forcing_term_floors():
    # far below the Newton tolerance: LINEAR_RTOL
    assert _forcing_term(1e-3, 1e-9, 1.0, 1e-20) == LINEAR_RTOL
    # near it: half the tolerance over the residual, above the cap if need be
    assert _forcing_term(1e-3, 1e-9, 1.0, 1e-11) == 0.5 * 1e-11 / 1e-9
    assert _forcing_term(0.01, 2e-11, 1e-10, 1e-11) == 0.25


def _fixed_forcing_term(eta_prev, res, res_prev, tol):
    # a tight rule: three orders of magnitude below the residual, at most 1e-3
    return max(LINEAR_RTOL, min(1e-3, 1e-3 * res))


@pytest.mark.parametrize("solver", ["ma2", "ma3"])
def test_forcing_terms_reach_the_solution_of_tight_linear_solves(solver, monkeypatch):
    rng = np.random.default_rng(1)
    if solver == "ma2":
        g, F, _, _ = manufactured_problem(PeriodicGrid(2, (16, 16, 1, 1)), rng)
        solve = lambda: solve_ma2(g, F)
    else:
        g, g0, F, _, _ = ma3_manufactured(GRID3, rng)
        solve = lambda: solve_ma3(g, g0, F)
    rtols = []
    real_gmres = ma_module.gmres

    def gmres(A, b, **kwargs):
        rtols.append(kwargs["rtol"])
        return real_gmres(A, b, **kwargs)

    monkeypatch.setattr(ma_module, "gmres", gmres)
    loose = solve()
    assert list(loose.linear_rtols) == rtols and rtols[0] == ETA_MAX
    monkeypatch.setattr(ma_module, "_forcing_term", _fixed_forcing_term)
    tight = solve()
    assert len(tight.linear_rtols) == len(tight.linear_iterations)

    assert np.max(np.abs(loose.phi.values - tight.phi.values)) <= 1e-9
    assert abs(loose.b - tight.b) <= 1e-9
    tol = SolverConfig().tolerance
    assert loose.residual_history[-1] <= tol and tight.residual_history[-1] <= tol
    assert sum(loose.linear_iterations) < sum(tight.linear_iterations)
    assert loose.iterations <= tight.iterations + 2


def test_importing_hermweb_loads_no_scipy():
    src = Path(ma_module.__file__).resolve().parents[1]
    code = (
        "import sys; import hermweb, hermweb.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=src, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.stdout.strip() == "[]"
