"""Acceptance gate: eleven criteria, each printing one PASS/FAIL line.

Every criterion states its tolerance inline and enforces a wall-clock cap.
Run with `pytest -v`; the PASS/FAIL lines bypass capture so they always show.
"""

import time

import numpy as np
import pytest

from hermweb.flow import run_flow
from hermweb.forms import FormField, d_max_norm, ddbar, exterior_d, wedge, wedge_power
from hermweb.grid import PeriodicGrid, ScalarField, from_function, hessian_values
from hermweb.ma import hodge_root, matrix_to_form, solve_ma2, solve_ma3
from hermweb.metric import (
    HermitianMetricField,
    chern_ricci,
    classify,
    conformal_flatten,
    identity_metric,
    parallel_section_check,
    ricci_norm,
    ricci_potential,
)
from hermweb.models import (
    hopf_check,
    hopf_points,
    hopf_ricci_closed_form,
    nakamura_check,
    nakamura_samples,
    yoshihara_check,
)

from helpers import (
    basis_keys,
    brute_wedge,
    bump_metric,
    form_to_generators,
    max_diff_generators,
    random_bandlimited,
    random_metric,
    spectral_partial,
    uniqueness_probe,
)


class Criterion:
    """Collects (name, value, bound) checks and a runtime cap, then emits a
    single PASS/FAIL line for the criterion."""

    def __init__(self, capsys, number: int, title: str, time_cap: float):
        self.capsys = capsys
        self.number = number
        self.title = title
        self.time_cap = time_cap
        self.t0 = time.perf_counter()
        self.checks = []

    def require(self, name: str, value: float, bound: float):
        self.checks.append((name, float(value), float(bound)))

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        self.checks.append(("runtime_seconds", elapsed, self.time_cap))
        ok = all(v <= b for _, v, b in self.checks)
        worst = max(self.checks, key=lambda c: c[1] / c[2] if c[2] else np.inf)
        line = (
            f"[criterion {self.number:2d}] {'PASS' if ok else 'FAIL'}: {self.title} "
            f"(worst {worst[0]} = {worst[1]:.3e} vs {worst[2]:.1e}, {elapsed:.1f}s)"
        )
        with self.capsys.disabled():
            print(line, flush=True)
        failed = [f"{n} = {v:.3e} > {b:.1e}" for n, v, b in self.checks if v > b]
        assert ok, f"criterion {self.number}: " + "; ".join(failed)


def random_form(grid, p, q, rng):
    coeffs = {
        key: random_bandlimited(grid, rng, complex_valued=True, terms=2)
        for key in basis_keys(grid.n, p, q)
    }
    return FormField(grid, p, q, coeffs)


def test_criterion_01_calculus_floor(capsys):
    c = Criterion(capsys, 1, "spectral calculus and wedge oracle", 5.0)
    grid = PeriodicGrid(2, (64, 1, 64, 1))
    # spectral derivative of a plane wave is exact
    f = from_function(grid, lambda **co: np.exp(2j * np.pi * (co["x1"] + co["y1"])))
    dz = spectral_partial(f.values, grid, 1)[0]
    c.require(
        "plane_wave_derivative",
        np.max(np.abs(dz - np.pi * (1 + 1j) * f.values)),
        1e-12,
    )
    # dbar^2 = 0 on a random band-limited (1,0)-form
    rng = np.random.default_rng(0)
    a = random_form(grid, 1, 0, rng)
    _, dba = exterior_d(a)
    _, dbdba = exterior_d(dba)
    c.require("dbar_squared", dbdba.max_norm(), 1e-12)
    # wedge vs brute-force permutation oracle, n = 2 and 3
    for n in (2, 3):
        g = PeriodicGrid(n, (8, 1) * n)
        x = random_form(g, 1, 1, rng)
        y = random_form(g, 1, 0, rng)
        got = form_to_generators(wedge(x, y))
        oracle = brute_wedge(form_to_generators(x), form_to_generators(y))
        c.require(f"wedge_oracle_n{n}", max_diff_generators(got, oracle), 1e-12)
    c.finish()


def test_criterion_02_conformal_ricci_law(capsys):
    c = Criterion(capsys, 2, "Ric(e^u g) = Ric(g) - n i ddbar u", 10.0)
    grid = PeriodicGrid(2, (64, 64, 1, 1))
    rng = np.random.default_rng(1)
    for trial in range(3):
        g = random_metric(grid, rng, amp=0.15)
        u = random_bandlimited(grid, rng, amp=0.4).real
        gu = HermitianMetricField(grid, np.exp(u)[..., None, None] * g.g)
        resid = chern_ricci(gu) - chern_ricci(g) + ddbar(ScalarField(grid, u)).scaled(float(grid.n))
        c.require(f"law_residual_{trial}", resid.max_norm(), 1e-9)
    c.finish()


def test_criterion_03_conformal_flattening(capsys):
    c = Criterion(capsys, 3, "conformal route: flat output on the bump metric", 5.0)
    grid = PeriodicGrid(2, (64, 64, 1, 1))
    flat = conformal_flatten(bump_metric(grid))
    c.require("output_ricci_max_norm", ricci_norm(flat), 1e-10)
    d = flat.det().real
    c.require("det_relative_spread", np.ptp(d) / np.mean(d), 1e-12)
    c.finish()


def test_criterion_04_monge_ampere_n2(capsys):
    c = Criterion(capsys, 4, "scalar Monge-Ampere solver on a 64x64 grid", 120.0)
    grid = PeriodicGrid(2, (64, 64, 1, 1))
    rng = np.random.default_rng(2)
    # manufactured solution
    g = random_metric(grid, rng, amp=0.1, kmax=1)
    phi_star = random_bandlimited(grid, rng, amp=0.01, kmax=1).real
    phi_star -= phi_star.mean()
    gt = HermitianMetricField(grid, g.g + hessian_values(phi_star.astype(np.complex128), grid))
    b_star = -0.4
    F = ScalarField(grid, (np.log(gt.det().real / g.det().real) - b_star).astype(np.complex128))
    sol = solve_ma2(g, F)
    c.require("manufactured_phi_error", np.max(np.abs(sol.phi.values.real - phi_star)), 1e-6)
    c.require("manufactured_b_error", abs(sol.b - b_star), 1e-6)
    # prescribed F = ricci potential gives a Chern-Ricci-flat output
    sol2 = solve_ma2(g, ricci_potential(g))
    c.require("ricci_flat_output", ricci_norm(sol2.metric_out), 1e-6)
    # uniqueness probe from two initial guesses
    spread = uniqueness_probe(
        lambda init: solve_ma2(g, F, initial_phi=init),
        np.zeros(grid.shape),
        1e-2 * random_bandlimited(grid, rng, kmax=1).real,
    )
    c.require("uniqueness_probe", spread, 1e-6)
    c.finish()


def test_criterion_05_form_type_n3(capsys):
    c = Criterion(capsys, 5, "form-type solver (n=3, Kahler reference) on 32x32", 300.0)
    grid = PeriodicGrid(3, (32, 32, 1, 1, 1, 1))
    rng = np.random.default_rng(3)
    g0 = identity_metric(grid)
    omega0 = g0.fundamental_form()
    # manufactured solution
    g = random_metric(grid, rng, amp=0.05, kmax=1)
    phi_star = random_bandlimited(grid, rng, amp=0.004, kmax=1).real
    phi_star -= phi_star.mean()
    target = wedge_power(g.fundamental_form(), 2) + wedge(
        ddbar(ScalarField(grid, phi_star.astype(np.complex128))), omega0
    )
    gt = hodge_root(target)
    b_star = 0.15
    F = ScalarField(grid, (np.log(gt.det().real / g.det().real) - b_star).astype(np.complex128))
    sol = solve_ma3(g, g0, F)
    c.require("manufactured_phi_error", np.max(np.abs(sol.phi.values.real - phi_star)), 1e-5)
    c.require("manufactured_b_error", abs(sol.b - b_star), 1e-5)
    # balanced non-Kahler input; Ricci-flat, balance-preserving output
    chi = random_bandlimited(grid, rng, amp=0.004, kmax=1).real
    gb = hodge_root(
        wedge_power(omega0, 2)
        + wedge(ddbar(ScalarField(grid, chi.astype(np.complex128))), omega0)
    )
    solb = solve_ma3(gb, g0, ricci_potential(gb))
    c.require("ricci_flat_output", ricci_norm(solb.metric_out), 1e-5)
    omega_out2 = wedge_power(solb.metric_out.fundamental_form(), 2)
    c.require("balanced_residual", d_max_norm(omega_out2), 1e-6)
    gauduchon_ok = classify(solb.metric_out, 1e-6).gauduchon
    c.require("gauduchon_flag", 0.0 if gauduchon_ok else 1.0, 0.5)
    c.finish()


def test_criterion_06_hodge_root(capsys):
    c = Criterion(capsys, 6, "Michelsohn (n-1)-root round trip", 5.0)
    rng = np.random.default_rng(4)
    for n in (2, 3):
        grid = PeriodicGrid(n, (8, 1) * n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        G = a @ a.conj().T + n * np.eye(n)
        gmat = np.broadcast_to(G, grid.shape + (n, n)).copy()
        g = HermitianMetricField(grid, gmat)
        back = hodge_root(wedge_power(g.fundamental_form(), n - 1))
        c.require(f"round_trip_n{n}", np.max(np.abs(back.g - g.g)), 1e-10)
    # diag(1,4,9) -> diag(6, 1.5, 2/3), with the wedge power checked against
    # the brute-force oracle
    grid = PeriodicGrid(3, (8, 1, 1, 8, 1, 1))
    lam = np.zeros(grid.shape + (3, 3), dtype=np.complex128)
    lam[..., 0, 0], lam[..., 1, 1], lam[..., 2, 2] = 1.0, 4.0, 9.0
    root = hodge_root(matrix_to_form(grid, lam))
    c.require(
        "diag_149_value",
        np.max(np.abs(root.g - np.diag([6.0, 1.5, 2.0 / 3.0]))),
        1e-12,
    )
    omega = root.fundamental_form()
    oracle = brute_wedge(form_to_generators(omega), form_to_generators(omega))
    c.require(
        "diag_149_oracle",
        max_diff_generators(form_to_generators(wedge_power(omega, 2)), oracle),
        1e-12,
    )
    c.finish()


def test_criterion_07_chern_ricci_flow(capsys):
    c = Criterion(capsys, 7, "Chern-Ricci flow from the bump metric", 180.0)
    grid = PeriodicGrid(2, (32, 32, 1, 1))
    g = bump_metric(grid)
    kmax2 = sum((grid.sizes[a] // 2) ** 2 for a in grid.active_axes)
    dt0 = 2.0 / (np.pi**2 * kmax2)
    final, history = run_flow(g, tol=1e-7, dt0=dt0, max_steps=200_000)
    norms = [row.ricci_norm for row in history]
    monotone = all(b <= a for a, b in zip(norms, norms[1:]))
    c.require("monotone_decrease", 0.0 if monotone else 1.0, 0.5)
    c.require("final_ricci_max_norm", final.ricci_norm, 1e-6)
    sol = solve_ma2(g, ricci_potential(g))
    c.require("limit_matches_ma2", np.max(np.abs(final.g.g - sol.metric_out.g)), 1e-4)
    c.finish()


def test_criterion_08_weitzenboeck(capsys):
    c = Criterion(capsys, 8, "Weitzenboeck identity for eta = (dz^1..dz^n)^l", 10.0)
    grid = PeriodicGrid(2, (64, 64, 1, 1))
    rng = np.random.default_rng(5)
    g = random_metric(grid, rng, amp=0.05)
    for ell in (1, 2):
        c.require(f"identity_residual_l{ell}", parallel_section_check(g, ell).identity_residual, 1e-8)
    flat = conformal_flatten(bump_metric(grid))
    rep = parallel_section_check(flat, 1)
    c.require("flat_identity_residual", rep.identity_residual, 1e-8)
    c.require("parallel_grad_eta", rep.grad_eta_norm, 1e-8)
    c.finish()


def test_criterion_09_hopf(capsys):
    c = Criterion(capsys, 9, "Hopf Chern-Ricci closed form", 5.0)
    report = hopf_check(hopf_points(50, 2, seed=0), 2)
    by_name = {chk.name: chk for chk in report.checks}
    c.require(
        "fd_agreement", by_name["closed_form_vs_finite_differences"].computed, 1e-6
    )
    ric = hopf_ricci_closed_form(np.array([1.0 + 0j, 0.0 + 0j]))
    c.require("value_at_unit_point", np.max(np.abs(ric - np.diag([0.0, 2.0]))), 1e-12)
    for name in ("semipositive", "kernel_direction"):
        c.require(name, 0.0 if by_name[name].passed else 1.0, 0.5)
    c.finish()


def test_criterion_10_nakamura(capsys):
    c = Criterion(capsys, 10, "Nakamura volume form is deformation-invariant", 5.0)
    samples = nakamura_samples(120, [0.05, 0.1 + 0.1j, 0.3], seed=0)
    report = nakamura_check(samples)
    by_name = {chk.name: chk for chk in report.checks}
    for chk in report.checks:
        c.require(chk.name, 0.0 if chk.passed else 1.0, 0.5)
    c.require("relative_spread", by_name["coefficient_spread"].computed, 1e-12)
    c.finish()


def test_criterion_11_yoshihara(capsys):
    c = Criterion(capsys, 11, "Yoshihara infinite-order monodromy certificate", 10.0)
    report = yoshihara_check(1_000_000)
    for chk in report.checks:
        c.require(chk.name, 0.0 if chk.passed else 1.0, 0.5)
    c.finish()
