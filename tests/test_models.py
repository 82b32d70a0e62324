import numpy as np
import pytest

from hermweb import models
from hermweb.cli import main
from hermweb.models import (
    QUARTIC,
    RECURRENCE,
    ExampleError,
    YoshiharaData,
    cyclotomic_coefficients,
    cyclotomic_indices_up_to_degree,
    euler_phi,
    flat_volume_descent_check,
    hopf_check,
    hopf_metric_matrix,
    hopf_points,
    hopf_ricci_closed_form,
    nakamura_check,
    nakamura_samples,
    nakamura_top_coefficient,
    yoshihara_check,
    yoshihara_roots,
)

from helpers import brute_wedge, fd_ricci_full_stencil, fd_ricci_pointwise, sort_parity


# ---------------------------------------------------------------------------
# Hopf
# ---------------------------------------------------------------------------

def test_hopf_metric_matrix():
    z = np.array([1.0 + 0j, 0.0])
    assert np.allclose(hopf_metric_matrix(z), np.eye(2))
    assert np.allclose(hopf_metric_matrix(2 * z), np.eye(2) / 4)


def test_hopf_ricci_at_unit_point():
    # at z = (1, 0), n = 2: (2/1)(I - e1 e1^T) = diag(0, 2)
    ric = hopf_ricci_closed_form(np.array([1.0 + 0j, 0.0 + 0j]))
    assert np.max(np.abs(ric - np.diag([0.0, 2.0]))) < 1e-14


def test_hopf_ricci_is_psd_with_kernel():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        ric = hopf_ricci_closed_form(z)
        w = np.linalg.eigvalsh(ric)
        assert w[0] > -1e-12  # PSD
        assert abs(w[0]) < 1e-12  # kernel direction zbar
        r2 = np.sum(np.abs(z) ** 2)
        # trace = n(n-1)/r^2 and top eigenvalue is n/r^2 along zbar
        assert w[-1] == pytest.approx(3.0 / r2, rel=1e-12)
        kernel = np.conj(z)
        assert np.max(np.abs(ric @ kernel)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_hopf_closed_form_matches_finite_differences(n):
    report = hopf_check(hopf_points(50, n, seed=1), n)
    assert report.passed
    names = {c.name for c in report.checks}
    assert "closed_form_vs_finite_differences" in names


@pytest.mark.parametrize("n", [2, 3])
def test_batched_fd_ricci_matches_the_pointwise_oracle(n, monkeypatch):
    # blocks of 16 split the 50 points into four stencil arrays, so block
    # boundaries are crossed
    monkeypatch.setattr(models, "FD_BLOCK", 16)
    points = hopf_points(50, n, seed=1)
    z = np.stack(points)
    got = models._fd_ricci(z, 0.01 * np.linalg.norm(z, axis=1))
    want = np.stack([fd_ricci_pointwise(p, 0.01 * float(np.linalg.norm(p))) for p in points])
    assert got.shape == (50, n, n)
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("n, per_sample", [(2, 113), (3, 265)])
def test_fd_ricci_evaluates_only_the_weighted_stencil_points(n, per_sample, monkeypatch):
    # the centre once, 4 points along each axis and 16 per unordered pair of
    # axes; the sums are the full stencil's up to round-off times 1/h^2
    monkeypatch.setattr(models, "FD_BLOCK", 16)
    evaluated = []
    metric = models.hopf_metric_matrix

    def counting(z):
        evaluated.append(z.size // z.shape[-1])
        return metric(z)

    monkeypatch.setattr(models, "hopf_metric_matrix", counting)
    z = hopf_points(50, n, seed=1)
    h = 0.01 * np.linalg.norm(z, axis=1)
    got = models._fd_ricci(z, h)
    assert sum(evaluated) == per_sample * 50
    assert np.max(np.abs(got - fd_ricci_full_stencil(z, h))) < 1e-10
    assert np.max(np.abs(got - hopf_ricci_closed_form(z))) < models.FD_TOL


def test_hopf_closed_form_is_batched():
    z = np.stack(hopf_points(5, 3, seed=4))
    stacked = hopf_ricci_closed_form(z)
    assert all(np.allclose(stacked[k], hopf_ricci_closed_form(z[k]), rtol=0, atol=1e-14) for k in range(5))
    assert np.allclose(hopf_metric_matrix(z)[2], hopf_metric_matrix(z[2]), rtol=0, atol=1e-15)


def test_hopf_check_rejects_an_empty_point_set():
    with pytest.raises(ExampleError, match="no sample points"):
        hopf_check([], 2)


@pytest.mark.parametrize("point", [np.array([1.0 + 0j]), np.array([1.0, 0.5, 0.2 + 1j])])
def test_hopf_check_rejects_points_of_the_wrong_length(point):
    with pytest.raises(ExampleError, match="needs 2 coordinates"):
        hopf_check([np.array([1.0, 0.5j]), point], 2)


@pytest.mark.parametrize("bad", [np.array([0.05, 0.0j]), np.array([np.nan, 1.0])])
def test_hopf_check_rejects_points_near_the_origin_or_not_finite(bad, monkeypatch):
    # rejected before any stencil is built
    monkeypatch.setattr(models, "_fd_ricci", lambda *a: pytest.fail("stencil built"))
    with pytest.raises(ExampleError, match="too close to the origin"):
        hopf_check([np.array([1.0, 0.5j]), bad], 2)


def test_hopf_points_respect_radius_window():
    for z in hopf_points(100, 2, seed=2):
        r = np.linalg.norm(z)
        assert 0.5 - 1e-12 <= r <= 2.0 + 1e-12


def test_hopf_points_deterministic():
    a = hopf_points(7, 3, seed=4)
    assert a.shape == (7, 3)
    assert np.array_equal(a, hopf_points(7, 3, seed=4))
    assert not np.array_equal(a, hopf_points(7, 3, seed=5))


def test_hopf_check_scaling_invariance():
    # Ric is invariant under z -> 2z composed with the 1/|z|^2 scaling law:
    # Ric(c z) = Ric(z) / |c|^2
    z = np.array([0.3 + 0.4j, -0.2 + 0.9j])
    assert np.allclose(hopf_ricci_closed_form(2 * z), hopf_ricci_closed_form(z) / 4)


# ---------------------------------------------------------------------------
# Nakamura
# ---------------------------------------------------------------------------

def test_nakamura_coefficient_value():
    # at t = 0 the coframe is a global holomorphic trivialization and
    # omega^3 = 6 (i dz_1 dzbar_1)(i dz_2 dzbar_2)(i dz_3 dzbar_3): coefficient
    # 6 i^3 = -6i in the interleaved ordering
    got = nakamura_top_coefficient(0.37 - 0.11j, 0.0)
    assert got == pytest.approx(-6j, abs=1e-13)


def test_nakamura_coefficient_independent_of_z1_and_t():
    vals = [
        nakamura_top_coefficient(z1, t)
        for z1 in (0.0, 0.5 + 0.5j, -1.0 + 0.2j)
        for t in (0.0, 0.05, 0.1 + 0.1j, 0.3)
    ]
    ref = vals[0]
    assert all(abs(v - ref) < 1e-12 for v in vals)


def test_nakamura_coefficient_on_arrays_matches_scalar_calls():
    samples = nakamura_samples(30, [0.05, 0.1 + 0.1j, 0.3], seed=5)
    z1, t = (np.array(v) for v in zip(*samples))
    got = nakamura_top_coefficient(z1, t)
    assert got.shape == (30,)
    want = [nakamura_top_coefficient(a, b) for a, b in samples]
    assert all(isinstance(w, complex) for w in want)
    assert np.max(np.abs(got - np.array(want))) < 1e-13


def test_nakamura_coefficient_matches_the_brute_force_wedge():
    # omega = i sum theta_k conj(theta_k) over the generators dz_1..dz_3 -> 0..2
    # and dzbar_1..dzbar_3 -> 3..5, cubed term by term
    samples = nakamura_samples(30, [0.05, 0.1 + 0.1j, 0.3], seed=5)
    z1, t = (np.array(v) for v in zip(*samples))
    e = np.exp(z1)
    theta = [{(0,): 1.0, (5,): -t * e}, {(1,): np.exp(-z1)}, {(2,): e}]
    theta_bar = [{(3,): 1.0, (2,): -np.conj(t * e)}, {(4,): np.conj(np.exp(-z1))}, {(5,): np.conj(e)}]
    omega = {}
    for th, thb in zip(theta, theta_bar):
        for key, v in brute_wedge(th, thb).items():
            omega[key] = omega.get(key, 0) + 1j * v
    cubed = brute_wedge(brute_wedge(omega, omega), omega)
    # reorder the sorted generators to dz_1 dzbar_1 dz_2 dzbar_2 dz_3 dzbar_3
    sign, _ = sort_parity((0, 3, 1, 4, 2, 5))
    want = sign * cubed[(0, 1, 2, 3, 4, 5)]
    assert np.max(np.abs(nakamura_top_coefficient(z1, t) - want)) < 1e-13


def test_nakamura_check_rejects_large_t_before_evaluating(monkeypatch):
    monkeypatch.setattr(models, "nakamura_top_coefficient", lambda *a: pytest.fail("evaluated"))
    with pytest.raises(ExampleError, match="deformation bound"):
        nakamura_check([(0.1 + 0j, 0.2 + 0j), (0.0j, 0.6 + 0j)])
    with pytest.raises(ExampleError, match="no samples"):
        nakamura_check([])
    # a NaN t would pass the bound and fail only the spread check
    for sample in [(0.1 + 0j, complex("nan")), (complex("inf"), 0.2 + 0j)]:
        with pytest.raises(ExampleError, match="finite"):
            nakamura_check([(0.1 + 0j, 0.2 + 0j), sample])


def test_nakamura_check_passes():
    report = nakamura_check(nakamura_samples(120, [0.05, 0.1 + 0.1j, 0.3], seed=3))
    assert report.passed


def test_nakamura_samples_deterministic():
    a = nakamura_samples(10, [0.05, 0.3], seed=4)
    b = nakamura_samples(10, [0.05, 0.3], seed=4)
    assert a == b and len(a) == 10
    assert all(isinstance(z1, complex) and t in (0.05, 0.3) for z1, t in a)
    assert a != nakamura_samples(10, [0.05, 0.3], seed=5)


@pytest.mark.parametrize(
    "draw", [lambda seed: hopf_points(3, 2, seed=seed), lambda seed: nakamura_samples(3, [0.05], seed=seed)],
    ids=["hopf", "nakamura"],
)
def test_samplers_reject_a_negative_seed_by_name(draw):
    with pytest.raises(ExampleError, match="seed must be non-negative, got -1"):
        draw(-1)
    assert len(draw(0)) == 3


# ---------------------------------------------------------------------------
# Yoshihara
# ---------------------------------------------------------------------------

def test_yoshihara_roots_quadratic():
    data = yoshihara_roots()
    a, b = data.alpha, data.beta
    assert abs(a + b - (1 + 1j)) < 1e-14
    assert abs(a * b - 1.0) < 1e-14
    assert a.imag > 0
    # regression anchors for the root values
    assert a == pytest.approx(0.7429341358783228 + 1.5290855136357462j, abs=1e-12)
    assert b == pytest.approx(0.2570658641216772 - 0.5290855136357462j, abs=1e-12)


def test_yoshihara_lambda_on_unit_circle_but_not_root_of_unity():
    data = yoshihara_roots()
    lam = data.lam
    assert abs(abs(lam) - 1.0) < 1e-14
    ks = np.arange(1, 10_000)
    assert np.min(np.abs(lam**ks - 1.0)) > 1e-6


def test_yoshihara_quartic_and_recurrence():
    data = yoshihara_roots()
    for x in (data.alpha, np.conj(data.beta)):
        assert abs(np.polyval(QUARTIC, x)) < 1e-12
        assert abs(x**4 - (RECURRENCE[0] * x**3 + RECURRENCE[1] * x**2 + RECURRENCE[2] * x + RECURRENCE[3])) < 1e-12


def test_yoshihara_companion_matrix():
    data = yoshihara_roots()
    C = data.companion_matrix()
    assert np.allclose(C, np.round(C))  # integer matrix
    assert abs(np.linalg.det(C) - 1.0) < 1e-12
    assert np.allclose(np.poly(C), QUARTIC)
    # the lattice basis diagonalizes the action: B C = diag(alpha, conj(beta)) B
    B = data.lattice_basis()
    lhs = B @ C
    rhs = np.diag([data.alpha, np.conj(data.beta)]) @ B
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_yoshihara_check_reports_bad_roots(monkeypatch, capsys):
    # the roots are tested by the report alone: bad roots fail its checks,
    # and the command exits 2 (a failed check), not 1 (an input error)
    monkeypatch.setattr(models, "yoshihara_roots", lambda: YoshiharaData(2.0 + 0j, 1.0 + 0j))
    checks = {c.name: c for c in yoshihara_check(100).checks}
    assert not checks["alpha_beta_product"].passed
    assert not checks["lambda_modulus"].passed
    assert main(["verify-example", "--name", "yoshihara"]) == 2
    assert "passed: false" in capsys.readouterr().out


def test_cyclotomic_indices():
    assert cyclotomic_indices_up_to_degree(4) == [1, 2, 3, 4, 5, 6, 8, 10, 12]
    assert cyclotomic_indices_up_to_degree(1) == [1, 2]


def test_cyclotomic_arithmetic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for k in range(1, 61):
        want = [int(c) for c in sympy.Poly(sympy.cyclotomic_poly(k, x)).all_coeffs()]
        assert list(cyclotomic_coefficients(k)) == want, k
        assert euler_phi(k) == sympy.totient(k), k


def test_yoshihara_check_full_certificate():
    report = yoshihara_check(10_000)
    assert report.passed
    names = {c.name for c in report.checks}
    assert "powers_avoid_one" in names
    assert "no_quadratic_factor" in names


def test_yoshihara_check_rejects_bad_bound():
    with pytest.raises(ExampleError):
        yoshihara_check(0)


def test_flat_volume_descent():
    report = flat_volume_descent_check()
    assert report.passed
