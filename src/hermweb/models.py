"""Machine checks for the three explicit model manifolds.

hopf_check     the round metric on (C^n \\ 0)/~ and its semipositive,
               non-vanishing Chern-Ricci form
nakamura_check the deformed parallelizable solvmanifold coframe, whose top
               form has constant coefficient (hence Ric = 0)
yoshihara_check / flat_volume_descent_check
               the torus automorphism arithmetic behind the suspension
               3-fold with vanishing first Bott-Chern class
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forms import merge_sign, sort_sign

DEGREE1_FD = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
DEGREE2_FD = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
OFFSETS = np.array([-2, -1, 0, 1, 2])


class ExampleError(ValueError):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    computed: object
    expected: object
    tolerance: float
    passed: bool


@dataclass
class ExampleReport:
    example: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, computed, expected, tolerance, error: float):
        self.checks.append(CheckResult(name, computed, expected, tolerance, error <= tolerance))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "example": self.example,
            "passed": self.passed,
            "checks": {
                c.name: {
                    "computed": c.computed,
                    "expected": c.expected,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                }
                for c in self.checks
            },
        }


# ---------------------------------------------------------------------------
# Hopf manifold (local finite-difference verification on the universal cover)
# ---------------------------------------------------------------------------

def hopf_metric_matrix(z: np.ndarray) -> np.ndarray:
    """g_{i jbar} = delta_ij / |z|^2."""
    return np.eye(len(z)) / float(np.sum(np.abs(z) ** 2))


def hopf_ricci_closed_form(z: np.ndarray) -> np.ndarray:
    """Ric coefficient matrix (n/|z|^2)(delta_ij - zbar_i z_j / |z|^2)."""
    n = len(z)
    r2 = float(np.sum(np.abs(z) ** 2))
    return (n / r2) * (np.eye(n) - np.outer(np.conj(z), z) / r2)


def _mixed_partial(fn, point: np.ndarray, axis_a: int, axis_b: int, h: float) -> float:
    """4th-order centered finite difference of d^2 fn / dr_a dr_b at point."""
    if axis_a == axis_b:
        vals = np.array([fn(_shift(point, axis_a, o * h)) for o in OFFSETS])
        return float(DEGREE2_FD @ vals) / h**2
    vals = np.array(
        [[fn(_shift(_shift(point, axis_a, oa * h), axis_b, ob * h)) for ob in OFFSETS] for oa in OFFSETS]
    )
    return float(DEGREE1_FD @ vals @ DEGREE1_FD) / h**2


def _shift(point: np.ndarray, axis: int, delta: float) -> np.ndarray:
    p = point.copy()
    p[axis] += delta
    return p


def _fd_ricci(z: np.ndarray, h: float) -> np.ndarray:
    """-d^2 log det g / dz_i dzbar_j by finite differences in R^{2n}."""
    n = len(z)
    point = np.concatenate([z.real, z.imag])  # (x_1..x_n, y_1..y_n)

    def u(p):
        w = p[:n] + 1j * p[n:]
        return float(-np.log(np.linalg.det(hopf_metric_matrix(w)).real))

    ric = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            # d_i d_jbar = ((dx_i - i dy_i)(dx_j + i dy_j)) / 4
            xx = _mixed_partial(u, point, i, j, h)
            xy = _mixed_partial(u, point, i, n + j, h)
            yx = _mixed_partial(u, point, n + i, j, h)
            yy = _mixed_partial(u, point, n + i, n + j, h)
            ric[i, j] = 0.25 * (xx + 1j * xy - 1j * yx + yy)
    return ric


def hopf_points(num: int, n: int, seed: int = 0) -> list[np.ndarray]:
    """Sample points of C^n \\ {0} with 0.5 <= |z| <= 2."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < num:
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        r = np.abs(np.linalg.norm(z))
        if r < 1e-3:
            continue
        pts.append(z * rng.uniform(0.5, 2.0) / r)
    return pts


def hopf_check(points: list[np.ndarray], n: int, tol_fd: float = 1e-6) -> ExampleReport:
    """Closed-form Ric vs local finite differences, plus the semipositivity
    witness that the first Bott-Chern class cannot vanish."""
    report = ExampleReport("hopf")
    worst_fd = 0.0
    min_eig = np.inf
    max_zero_eig = 0.0
    min_top_margin = np.inf
    for z in points:
        z = np.asarray(z, dtype=np.complex128)
        if np.linalg.norm(z) < 0.1:
            raise ExampleError(f"point {z} too close to the origin")
        closed = hopf_ricci_closed_form(z)
        h = 0.01 * float(np.linalg.norm(z))
        fd = _fd_ricci(z, h)
        worst_fd = max(worst_fd, float(np.max(np.abs(closed - fd))))
        eig = np.linalg.eigvalsh(closed)
        min_eig = min(min_eig, float(eig[0]))
        max_zero_eig = max(max_zero_eig, abs(float(eig[0])))
        r2 = float(np.sum(np.abs(z) ** 2))
        min_top_margin = min(min_top_margin, float(eig[-1]) - n / (2 * r2))
    report.add("closed_form_vs_finite_differences", worst_fd, 0.0, tol_fd, worst_fd)
    report.add("semipositive", min_eig, ">= -1e-10", 1e-10, max(0.0, -min_eig))
    report.add("kernel_direction", max_zero_eig, 0.0, 1e-10, max_zero_eig)
    report.add(
        "top_eigenvalue_at_least_n_over_2r2",
        min_top_margin, ">= 0", 0.5, 0.0 if min_top_margin >= 0 else 1.0,
    )
    return report


# ---------------------------------------------------------------------------
# Nakamura deformations (pointwise exterior algebra over 6 generators)
# ---------------------------------------------------------------------------

# generators 0..2 = dz_1..dz_3, 3..5 = dzbar_1..dzbar_3
_GEN_DZ = (0, 1, 2)
_GEN_DZBAR = (3, 4, 5)


def _elem_wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            merged, sign = merge_sign(ka, kb)
            if merged is not None:
                out[merged] = out.get(merged, 0.0) + sign * va * vb
    return out


def nakamura_top_coefficient(z1: complex, t: complex) -> complex:
    """Coefficient of omega^3 on dz_1^dzbar_1^dz_2^dzbar_2^dz_3^dzbar_3.

    omega = i sum theta_k wedge conj(theta_k) for the deformed coframe
    theta_1 = dz_1 - t e^{z_1} dzbar_3, theta_2 = e^{-z_1} dz_2,
    theta_3 = e^{z_1} dz_3.
    """
    e = np.exp(z1)
    theta = [
        {(0,): 1.0 + 0j, (5,): -t * e},
        {(1,): np.exp(-z1)},
        {(2,): e},
    ]
    theta_bar = [
        {(3,): 1.0 + 0j, (2,): -np.conj(t * e)},
        {(4,): np.conj(np.exp(-z1))},
        {(5,): np.conj(e)},
    ]
    omega: dict = {}
    for th, thb in zip(theta, theta_bar):
        for k, v in _elem_wedge(th, thb).items():
            omega[k] = omega.get(k, 0.0) + 1j * v
    cubed = _elem_wedge(_elem_wedge(omega, omega), omega)
    raw = cubed.get((0, 1, 2, 3, 4, 5), 0.0)
    # reorder sorted generators to dz_1 dzbar_1 dz_2 dzbar_2 dz_3 dzbar_3
    _, sign = sort_sign((0, 3, 1, 4, 2, 5))
    return complex(raw * sign)


def nakamura_samples(num: int, t_values, seed: int = 0) -> list[tuple[complex, complex]]:
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(num):
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = complex(t_values[rng.integers(len(t_values))])
        samples.append((z1, t))
    return samples


def nakamura_check(samples: list[tuple[complex, complex]], tol: float = 1e-12) -> ExampleReport:
    """Constancy of the omega^3 coefficient across (z_1, t) samples."""
    report = ExampleReport("nakamura")
    for _, t in samples:
        if abs(t) > 0.5:
            raise ExampleError(f"|t| = {abs(t):g} exceeds the deformation bound 0.5")
    reference = nakamura_top_coefficient(0.0, 0.0)
    expected = 6.0 * (1j**3)
    err_ref = abs(reference - expected) / abs(expected)
    report.add("undeformed_top_coefficient", reference, expected, tol, err_ref)
    spread = max(
        abs(nakamura_top_coefficient(z1, t) - reference) / abs(reference) for z1, t in samples
    )
    report.add("coefficient_spread", spread, 0.0, tol, spread)
    return report


# ---------------------------------------------------------------------------
# Yoshihara torus automorphism arithmetic
# ---------------------------------------------------------------------------

QUARTIC = np.array([1.0, -2.0, 4.0, -2.0, 1.0])  # x^4 - 2x^3 + 4x^2 - 2x + 1
RECURRENCE = np.array([2.0, -4.0, 2.0, -1.0])  # v4 = 2 v3 - 4 v2 + 2 v1 - v0


@dataclass(frozen=True)
class YoshiharaData:
    """Roots of x^2 - (1+i)x + 1 and the induced lattice data."""

    alpha: complex
    beta: complex
    tau: complex = 1j

    def __post_init__(self):
        if abs(self.alpha * self.beta - 1.0) > 1e-12:
            raise ExampleError("alpha * beta must equal 1")
        if abs(abs(self.lam) - 1.0) > 1e-12:
            raise ExampleError("|alpha * conj(beta)| must equal 1")

    @property
    def lam(self) -> complex:
        return self.alpha * np.conj(self.beta)

    def lattice_basis(self) -> np.ndarray:
        """Column j is (alpha^j, conj(beta)^j), j = 0..3."""
        return np.array(
            [[self.alpha**j for j in range(4)], [np.conj(self.beta) ** j for j in range(4)]]
        )

    def companion_matrix(self) -> np.ndarray:
        """Integer matrix of multiplication by diag(alpha, conj(beta)) on the lattice."""
        C = np.zeros((4, 4))
        C[1:, :3] = np.eye(3)
        C[:, 3] = RECURRENCE[::-1]  # coefficients of (v0, v1, v2, v3)
        return C


def yoshihara_roots() -> YoshiharaData:
    roots = np.roots([1.0, -(1.0 + 1j), 1.0])
    alpha = roots[np.argmax(roots.imag)]
    beta = roots[np.argmin(roots.imag)]
    return YoshiharaData(complex(alpha), complex(beta))


def cyclotomic_indices_up_to_degree(d: int) -> list[int]:
    """All k with Euler phi(k) <= d (exhaustive: phi(k) > d for k > d^2 + d)."""
    # imported here: sympy is half of `import hermweb` and only this
    # arithmetic uses it
    import sympy

    return [k for k in range(1, d * d + d + 1) if sympy.totient(k) <= d]


def yoshihara_check(bound: int, tol: float = 1e-12) -> ExampleReport:
    """Arithmetic certificate that the suspension monodromy has infinite order."""
    if bound < 1:
        raise ExampleError("bound must be >= 1")
    data = yoshihara_roots()
    report = ExampleReport("yoshihara")
    a, bb = data.alpha, data.beta

    report.add("alpha_beta_product", a * bb, 1.0, 1e-14, abs(a * bb - 1.0))

    quartic_at = lambda x: complex(np.polyval(QUARTIC, x))
    report.add("quartic_residual_alpha", quartic_at(a), 0.0, tol, abs(quartic_at(a)))
    report.add(
        "quartic_residual_conj_beta", quartic_at(np.conj(bb)), 0.0, tol, abs(quartic_at(np.conj(bb)))
    )

    basis = data.lattice_basis()
    v4 = np.array([a**4, np.conj(bb) ** 4])
    rec = basis @ RECURRENCE[::-1]
    report.add("lattice_recurrence", float(np.max(np.abs(v4 - rec))), 0.0, tol, float(np.max(np.abs(v4 - rec))))

    lam = data.lam
    report.add("lambda_modulus", abs(lam), 1.0, 1e-12, abs(abs(lam) - 1.0))

    # exhaustive refutation: the quartic matches no cyclotomic polynomial
    import sympy

    matches = []
    for k in cyclotomic_indices_up_to_degree(4):
        coeffs = np.array(sympy.Poly(sympy.cyclotomic_poly(k, sympy.Symbol("x"))).all_coeffs(), dtype=float)
        if len(coeffs) == len(QUARTIC) and np.array_equal(coeffs, QUARTIC):
            matches.append(k)
    report.add("no_cyclotomic_match", matches, [], 0.5, float(len(matches)))

    # redundant numeric scan |lambda^k - 1| > 1e-6 for k <= bound
    theta = np.angle(lam)
    ks = np.arange(1, bound + 1)
    dist = 2.0 * np.abs(np.sin(0.5 * np.mod(ks * theta, 2 * np.pi)))
    min_dist = float(np.min(dist))
    report.add("powers_avoid_one", min_dist, "> 1e-6", 0.5, 1.0 if min_dist <= 1e-6 else 0.0)

    # monodromy eigenvalue on H^0(X, K_X): f* Omega = det diag(alpha, conj beta) Omega
    mono = complex(np.linalg.det(np.diag([a, np.conj(bb)])))
    report.add("monodromy_eigenvalue", mono, lam, 1e-14, abs(mono - lam))

    # quartic irreducibility over Q: no rational root, no integer quadratic factor
    rational_roots = [r for r in (1.0, -1.0) if abs(quartic_at(r)) < 1e-12]
    report.add("no_rational_root", rational_roots, [], 0.5, float(len(rational_roots)))
    report.add(
        "no_quadratic_factor", _has_integer_quadratic_factor(QUARTIC), False, 0.5,
        1.0 if _has_integer_quadratic_factor(QUARTIC) else 0.0,
    )
    return report


def _has_integer_quadratic_factor(quartic: np.ndarray) -> bool:
    """Search (x^2+ax+b)(x^2+cx+d) = quartic over integers (monic, |a|,|c| small)."""
    _, c3, c2, c1, c0 = (int(round(c)) for c in quartic)
    limit = abs(c2) + abs(c3) + abs(c0) + 4
    for b in (1, -1) if abs(c0) == 1 else range(-abs(c0), abs(c0) + 1):
        if b == 0 or c0 % b:
            continue
        d = c0 // b
        for a in range(-limit, limit + 1):
            c = c3 - a
            if b + d + a * c == c2 and a * d + b * c == c1:
                return True
    return False


def flat_volume_descent_check() -> ExampleReport:
    """The flat volume form on C^2/Lambda is preserved by the automorphism."""
    data = yoshihara_roots()
    report = ExampleReport("flat_volume_descent")
    det_mod = abs(np.linalg.det(np.diag([data.alpha, np.conj(data.beta)])))
    report.add("volume_jacobian_modulus", det_mod, 1.0, 1e-14, abs(det_mod - 1.0))
    C = data.companion_matrix()
    detC = float(np.linalg.det(C))
    report.add("lattice_map_determinant", abs(detC), 1.0, 1e-12, abs(abs(detC) - 1.0))
    charpoly = np.poly(C)
    report.add(
        "lattice_map_characteristic_polynomial",
        list(np.round(charpoly, 10)), list(QUARTIC), 1e-10, float(np.max(np.abs(charpoly - QUARTIC))),
    )
    report.add("identity_preserves_volume", 1.0, 1.0, 1e-15, 0.0)
    return report
