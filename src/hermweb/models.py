"""Machine checks for the three explicit model manifolds.

hopf_check     the round metric on (C^n \\ 0)/~ and its semipositive,
               non-vanishing Chern-Ricci form
nakamura_check the deformed parallelizable solvmanifold coframe, whose top
               form has constant coefficient (hence Ric = 0)
yoshihara_check / flat_volume_descent_check
               the torus automorphism arithmetic behind the suspension
               3-fold with vanishing first Bott-Chern class

Each check returns an ExampleReport, whose computed values, including the
roots yoshihara_roots computes, are tested only by its tolerance entries:
a failed check is a report that did not pass (exit 2 from the command
line), not an exception.  ExampleError (a ValueError, exit 1) is raised
only for inputs: no or malformed sample points, |t| > 0.5, bound < 1, a
negative seed.
hopf_points and nakamura_samples draw their seeded samples as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from math import gcd

import numpy as np

from .smallmat import hermitian_stack, stack_minors

DEGREE1_FD = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
DEGREE2_FD = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
OFFSETS = np.array([-2, -1, 0, 1, 2])
FD_BLOCK = 256  # sample points per batched finite-difference stencil array
FD_TOL = 1e-6  # hopf_check: closed-form Ric against finite differences
EXACT_TOL = 1e-12  # nakamura_check, yoshihara_check: identities that hold exactly


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
    """g_{i jbar} = delta_ij / |z|^2, for one point or a stack of points."""
    r2 = np.sum(np.abs(z) ** 2, axis=-1)[..., None, None]
    return np.eye(z.shape[-1]) / r2


def hopf_ricci_closed_form(z: np.ndarray) -> np.ndarray:
    """Ric coefficient matrix (n/|z|^2)(delta_ij - zbar_i z_j / |z|^2),
    for one point or a stack of points."""
    n = z.shape[-1]
    r2 = np.sum(np.abs(z) ** 2, axis=-1)[..., None, None]
    return (n / r2) * (np.eye(n) - np.conj(z)[..., :, None] * z[..., None, :] / r2)


@lru_cache(maxsize=2)
def _fd_stencil(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The points of _fd_ricci's stencil in R^{2n} that carry a nonzero
    weight, as shifts (K, 2n) in steps h, and the weights (K, 2n * 2n) of
    d^2 u / dr_a dr_b at them in units of 1/h^2.  A diagonal entry takes
    DEGREE2_FD along its axis, the centre shared by every axis; a pair of
    axes a < b takes DEGREE1_FD on both offsets, which vanishes at the
    centre, for (a, b) and (b, a) alike.  K = 1 + 4 (2n) + 16 n (2n - 1):
    113 for n = 2, 265 for n = 3."""
    m = 2 * n
    eye = np.eye(m)
    off = np.flatnonzero(DEGREE1_FD)  # every offset but the centre
    shifts = [np.zeros(m)]
    weights = [DEGREE2_FD[OFFSETS == 0] * eye]
    for a in range(m):
        for s in off:
            shifts.append(OFFSETS[s] * eye[a])
            weights.append(DEGREE2_FD[s] * np.outer(eye[a], eye[a]))
    for a, b in combinations(range(m), 2):
        pair = np.outer(eye[a], eye[b]) + np.outer(eye[b], eye[a])
        for s, t in product(off, off):
            shifts.append(OFFSETS[s] * eye[a] + OFFSETS[t] * eye[b])
            weights.append(DEGREE1_FD[s] * DEGREE1_FD[t] * pair)
    out = np.array(shifts), np.array(weights).reshape(len(shifts), m * m)
    for a in out:
        a.setflags(write=False)
    return out


def _fd_ricci(z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """-d^2 log det g / dz_i dzbar_j at each row of z (P, n) by 4th-order
    centered finite differences in R^{2n} with step h (P,).

    The potential u = -log det g is evaluated on the stencil points of
    _fd_stencil around every sample point of a block at once."""
    num, n = z.shape
    shifts, weights = _fd_stencil(n)
    ric = np.empty((num, n, n), dtype=np.complex128)
    for start in range(0, num, FD_BLOCK):
        blk = slice(start, start + FD_BLOCK)
        point = np.concatenate([z[blk].real, z[blk].imag], axis=1)  # (x_1..x_n, y_1..y_n)
        p = point[:, None, :] + h[blk, None, None] * shifts  # (P, K, 2n)
        G = hermitian_stack(hopf_metric_matrix(p[..., :n] + 1j * p[..., n:]))
        u = -np.log(stack_minors(G)[-1])
        # d^2 u / dr_a dr_b
        d2 = (u @ weights).reshape(-1, 2 * n, 2 * n) / h[blk, None, None] ** 2
        # d_i d_jbar = ((dx_i - i dy_i)(dx_j + i dy_j)) / 4
        xx, xy = d2[:, :n, :n], d2[:, :n, n:]
        yx, yy = d2[:, n:, :n], d2[:, n:, n:]
        ric[blk] = 0.25 * (xx + 1j * xy - 1j * yx + yy)
    return ric


def hopf_points(num: int, n: int, seed: int = 0) -> np.ndarray:
    """num sample points of C^n \\ {0} with 0.5 <= |z| <= 2, as a (num, n)
    array, empty for num <= 0: complex Gaussian directions scaled to radii
    uniform on [0.5, 2]."""
    if seed < 0:
        raise ExampleError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    size = (max(num, 0), n)
    z = rng.normal(size=size) + 1j * rng.normal(size=size)
    return z * (rng.uniform(0.5, 2.0, size=size[0]) / np.linalg.norm(z, axis=1))[:, None]


def hopf_check(points: list[np.ndarray], n: int) -> ExampleReport:
    """Closed-form Ric vs local finite differences, plus the semipositivity
    witness that the first Bott-Chern class cannot vanish."""
    z = [np.asarray(p, dtype=np.complex128) for p in points]
    if not z:
        raise ExampleError("no sample points")
    if any(p.shape != (n,) for p in z):
        raise ExampleError(f"every point needs {n} coordinates")
    z = np.stack(z)
    r = np.linalg.norm(z, axis=1)
    bad = ~(r >= 0.1)  # also catches non-finite points
    if bad.any():
        raise ExampleError(f"point {z[bad][0]} too close to the origin or not finite")
    closed = hopf_ricci_closed_form(z)
    fd = _fd_ricci(z, 0.01 * r)
    worst_fd = float(np.max(np.abs(closed - fd)))
    eig = np.linalg.eigvalsh(closed)
    min_eig = float(np.min(eig[:, 0]))
    max_zero_eig = float(np.max(np.abs(eig[:, 0])))
    min_top_margin = float(np.min(eig[:, -1] - n / (2 * r**2)))
    report = ExampleReport("hopf")
    report.add("closed_form_vs_finite_differences", worst_fd, 0.0, FD_TOL, worst_fd)
    report.add("semipositive", min_eig, ">= -1e-10", 1e-10, max(0.0, -min_eig))
    report.add("kernel_direction", max_zero_eig, 0.0, 1e-10, max_zero_eig)
    report.add(
        "top_eigenvalue_at_least_n_over_2r2",
        min_top_margin, ">= 0", 0.5, 0.0 if min_top_margin >= 0 else 1.0,
    )
    return report


# ---------------------------------------------------------------------------
# Nakamura deformations (the determinant of the deformed coframe)
# ---------------------------------------------------------------------------

def nakamura_top_coefficient(z1, t):
    """Coefficient of omega^3 on dz_1^dzbar_1^dz_2^dzbar_2^dz_3^dzbar_3, a
    complex for scalar (z_1, t) and an array for arrays of samples.

    omega = i sum theta_k wedge conj(theta_k) for the deformed coframe
    theta_1 = dz_1 - t e^{z_1} dzbar_3, theta_2 = e^{-z_1} dz_2,
    theta_3 = e^{z_1} dz_3.  The 2-forms theta_k wedge conj(theta_k) commute
    and square to 0, so omega^3 = 3! i^3 prod_k theta_k wedge conj(theta_k),
    which is 6 i^3 det C on that basis, with C the coefficients of theta_1,
    conj(theta_1), ..., conj(theta_3) on dz_1, dzbar_1, ..., dzbar_3.
    """
    z1, t = np.broadcast_arrays(np.asarray(z1, dtype=np.complex128), np.asarray(t, dtype=np.complex128))
    e, e_inv = np.exp(z1), np.exp(-z1)
    C = np.zeros(z1.shape + (6, 6), dtype=np.complex128)
    C[..., 0, 0] = C[..., 1, 1] = 1.0
    C[..., 0, 5] = -t * e
    C[..., 1, 4] = -np.conj(t * e)
    C[..., 2, 2] = e_inv
    C[..., 3, 3] = np.conj(e_inv)
    C[..., 4, 4] = e
    C[..., 5, 5] = np.conj(e)
    coeff = 6.0 * 1j**3 * np.linalg.det(C)
    return complex(coeff) if np.ndim(coeff) == 0 else coeff


def nakamura_samples(num: int, t_values, seed: int = 0) -> list[tuple[complex, complex]]:
    """num samples (z_1, t), none for num <= 0: z_1 uniform on the square
    |Re z_1|, |Im z_1| <= 1 and t drawn uniformly from t_values."""
    if seed < 0:
        raise ExampleError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    num = max(num, 0)
    z1 = rng.uniform(-1, 1, size=num) + 1j * rng.uniform(-1, 1, size=num)
    t = np.asarray(t_values, dtype=np.complex128)[rng.integers(len(t_values), size=num)]
    return list(zip(z1.tolist(), t.tolist()))


def nakamura_check(samples: list[tuple[complex, complex]]) -> ExampleReport:
    """Constancy of the omega^3 coefficient across (z_1, t) samples."""
    if not samples:
        raise ExampleError("no samples")
    z1, t = (np.array(v, dtype=np.complex128) for v in zip(*samples))
    if not (np.isfinite(z1).all() and np.isfinite(t).all()):
        raise ExampleError("samples must be finite")
    too_big = np.abs(t) > 0.5
    if too_big.any():
        raise ExampleError(f"|t| = {abs(t[too_big][0]):g} exceeds the deformation bound 0.5")
    report = ExampleReport("nakamura")
    reference = nakamura_top_coefficient(0.0, 0.0)
    expected = 6.0 * (1j**3)
    err_ref = abs(reference - expected) / abs(expected)
    report.add("undeformed_top_coefficient", reference, expected, EXACT_TOL, err_ref)
    spread = float(np.max(np.abs(nakamura_top_coefficient(z1, t) - reference))) / abs(reference)
    report.add("coefficient_spread", spread, 0.0, EXACT_TOL, spread)
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


def euler_phi(k: int) -> int:
    """Euler's totient: the count of 1 <= j <= k coprime to k."""
    return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)


@lru_cache(maxsize=None)
def cyclotomic_coefficients(k: int) -> tuple[int, ...]:
    """Integer coefficients of the k-th cyclotomic polynomial, highest degree
    first: Phi_k = (x^k - 1) / prod_{d | k, d < k} Phi_d by exact division."""
    quotient = [1] + [0] * (k - 1) + [-1]
    for d in range(1, k):
        if k % d:
            continue
        divisor = cyclotomic_coefficients(d)  # monic
        rest, quotient = quotient, []
        for i in range(len(rest) - len(divisor) + 1):
            c = rest[i]
            quotient.append(c)
            for j, dj in enumerate(divisor):
                rest[i + j] -= c * dj
    return tuple(quotient)


def cyclotomic_indices_up_to_degree(d: int) -> list[int]:
    """All k with Euler phi(k) <= d (exhaustive: phi(k) > d for k > d^2 + d)."""
    return [k for k in range(1, d * d + d + 1) if euler_phi(k) <= d]


def yoshihara_check(bound: int) -> ExampleReport:
    """Arithmetic certificate that the suspension monodromy has infinite order."""
    if bound < 1:
        raise ExampleError("bound must be >= 1")
    data = yoshihara_roots()
    report = ExampleReport("yoshihara")
    a, bb = data.alpha, data.beta

    report.add("alpha_beta_product", a * bb, 1.0, 1e-14, abs(a * bb - 1.0))

    quartic_at = lambda x: complex(np.polyval(QUARTIC, x))
    report.add("quartic_residual_alpha", quartic_at(a), 0.0, EXACT_TOL, abs(quartic_at(a)))
    report.add(
        "quartic_residual_conj_beta", quartic_at(np.conj(bb)), 0.0, EXACT_TOL, abs(quartic_at(np.conj(bb)))
    )

    basis = data.lattice_basis()
    v4 = np.array([a**4, np.conj(bb) ** 4])
    rec = basis @ RECURRENCE[::-1]
    report.add("lattice_recurrence", float(np.max(np.abs(v4 - rec))), 0.0, EXACT_TOL, float(np.max(np.abs(v4 - rec))))

    lam = data.lam
    report.add("lambda_modulus", abs(lam), 1.0, 1e-12, abs(abs(lam) - 1.0))

    # exhaustive refutation: the quartic matches no cyclotomic polynomial
    matches = []
    for k in cyclotomic_indices_up_to_degree(4):
        coeffs = np.array(cyclotomic_coefficients(k), dtype=float)
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
    factor = _has_integer_quadratic_factor(QUARTIC)
    report.add("no_quadratic_factor", factor, False, 0.5, 1.0 if factor else 0.0)
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
    return report
