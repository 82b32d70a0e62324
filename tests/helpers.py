"""Shared test oracles and random-field builders.

The oracles here are deliberately independent of the package internals:
the wedge oracle expands products over totally antisymmetric generator
tuples by brute force, and the derivative oracle uses 4th-order centered
finite differences on the periodic grid.  The metric-class oracle
classify_forms is the form path: exterior_d of omega and of omega^{n-1}
on complex spectra and a closed-form (Koszul) projection for the strongly
Gauduchon defect, where the package works on the real stacks of g and
adj g.  The pseudo-inverse strongly-Gauduchon oracle solves that
least-squares problem at every wavenumber instead.  The Hopf
finite-difference oracles evaluate their potential on all 5 x 5 stencil
points of every ordered pair of axes, one point at a time or in one array,
where the package evaluates only the points with a nonzero weight, each
unordered pair once.  The Newton operator and preconditioner oracles are
the solvers' complex forms: the full complex Hessian contracted with K,
and the flat-Laplacian solve on complex spectra.  The last section holds
small cross-checks that the package itself never calls: the (p,q) basis
keys, d/dz_i and d/dzbar_i of a field read from exterior_d, the Chern
connection of all n^2 entries of g on complex spectra, the grid mean,
a realness test, the Hermitian part of a matrix field, the inverse of
fundamental_form, a uniqueness probe for the Monge-Ampere solvers, a check
and a guard for the real stack a HermitianMetricField carries, the
expression form of the stack adjugate, one fresh array per entry, and a
capture of solve_ma3's Newton closures.
"""

from __future__ import annotations

import sys
from itertools import combinations, count

import numpy as np

from hermweb.forms import FormField, exterior_d, sort_sign, wedge_power
from hermweb.grid import PeriodicGrid, ScalarField, _z_symbols, hessian_values
from hermweb.metric import ClassReport, HermitianMetricField, MetricError, ricci_tensor
from hermweb.models import DEGREE1_FD, DEGREE2_FD, OFFSETS, hopf_metric_matrix
from hermweb import ma, smallmat


# ---------------------------------------------------------------------------
# Brute-force exterior algebra over 2n anticommuting generators
# (dz^1..dz^n -> 0..n-1, dzbar^1..dzbar^n -> n..2n-1)
# ---------------------------------------------------------------------------

def sort_parity(key):
    """Bubble-sort a generator tuple; return (sign, sorted tuple), sign 0 on repeats."""
    items = list(key)
    if len(set(items)) != len(items):
        return 0, ()
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return sign, tuple(items)


def form_to_generators(f: FormField) -> dict:
    """FormField -> {sorted generator tuple: coefficient array}."""
    n = f.grid.n
    return {
        tuple(I) + tuple(j + n for j in J): np.asarray(c)
        for (I, J), c in f.coeffs.items()
    }


def brute_wedge(a: dict, b: dict) -> dict:
    """Wedge of two generator-keyed forms by brute-force expansion."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            sign, key = sort_parity(ka + kb)
            if sign == 0:
                continue
            term = sign * va * vb
            out[key] = out.get(key, 0) + term
    return {k: v for k, v in out.items() if np.max(np.abs(v)) > 0}


def max_diff_generators(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    diff = 0.0
    for k in keys:
        va = a.get(k, 0.0)
        vb = b.get(k, 0.0)
        diff = max(diff, float(np.max(np.abs(np.asarray(va) - np.asarray(vb)))))
    return diff


# ---------------------------------------------------------------------------
# 4th-order finite-difference derivative oracle on the periodic grid
# ---------------------------------------------------------------------------

_FD1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))


def fd_partial_axis(values: np.ndarray, grid: PeriodicGrid, axis: int) -> np.ndarray:
    """d/d(axis coordinate) by 4th-order centered differences, periodic."""
    N = grid.sizes[axis]
    if N == 1:
        return np.zeros_like(values)
    h = 1.0 / N
    out = np.zeros_like(values, dtype=np.complex128)
    for off, w in _FD1:
        out += w * np.roll(values, -off, axis=axis)
    return out / (12.0 * h)


def fd_partial_z(values: np.ndarray, grid: PeriodicGrid, i: int) -> np.ndarray:
    dx = fd_partial_axis(values, grid, grid.axis_of("x", i))
    dy = fd_partial_axis(values, grid, grid.axis_of("y", i))
    return 0.5 * (dx - 1j * dy)


def fd_partial_zbar(values: np.ndarray, grid: PeriodicGrid, i: int) -> np.ndarray:
    dx = fd_partial_axis(values, grid, grid.axis_of("x", i))
    dy = fd_partial_axis(values, grid, grid.axis_of("y", i))
    return 0.5 * (dx + 1j * dy)


def fd_exterior_d(a: FormField) -> tuple[dict, dict]:
    """(del a, dbar a) as generator-keyed dicts: each coefficient's
    finite-difference d/dz_k (d/dzbar_k) times dz^k (dzbar^k) wedged on the
    left of its generator tuple, signs by bubble sort."""
    n = a.grid.n
    del_a: dict = {}
    dbar_a: dict = {}
    for key, c in form_to_generators(a).items():
        for k in range(n):
            for out, gen, fd in ((del_a, k, fd_partial_z), (dbar_a, n + k, fd_partial_zbar)):
                sign, new = sort_parity((gen,) + key)
                if sign:
                    out[new] = out.get(new, 0) + sign * fd(c, a.grid, k + 1)
    return del_a, dbar_a


# ---------------------------------------------------------------------------
# Strongly-Gauduchon defect by a pointwise pseudo-inverse in Fourier space
# ---------------------------------------------------------------------------

def sg_defect_pinv(omega_pow: FormField) -> float:
    """Max-norm of the least-squares residual of del beta = dbar(omega^{n-1}):
    at each wavenumber, the matrix of del from (n-2, n)- to (n-1, n)-forms
    is assembled from the d/dz symbols and inverted by np.linalg.pinv."""
    grid = omega_pow.grid
    n = grid.n
    _, target = exterior_d(omega_pow)  # (n-1, n)-form
    t_keys = list(basis_keys(n, n - 1, n))
    b_keys = list(basis_keys(n, n - 2, n))
    axes = grid.active_axes
    that = np.stack(
        [np.fft.fftn(target.coefficient(I, J), axes=axes) for I, J in t_keys], axis=-1
    )  # shape grid + (dimT,)
    sym_grid = [np.broadcast_to(s, grid.shape) for s in _z_symbols(grid)]
    A = np.zeros(grid.shape + (len(t_keys), len(b_keys)), dtype=np.complex128)
    t_index = {k: r for r, k in enumerate(t_keys)}
    for c, (K, J) in enumerate(b_keys):
        for k in range(n):
            Kn, s = sort_sign((k,) + K)
            if Kn is None:
                continue
            A[..., t_index[(Kn, J)], c] += s * sym_grid[k]
    beta = np.einsum("...ij,...j->...i", np.linalg.pinv(A), that)
    res_hat = that - np.einsum("...ij,...j->...i", A, beta)
    res_phys = np.fft.ifftn(np.moveaxis(res_hat, -1, 0), axes=[a + 1 for a in axes])
    return float(np.max(np.abs(res_phys)))


# ---------------------------------------------------------------------------
# Metric-class residuals on the form layer
# ---------------------------------------------------------------------------

def sg_defect_projection(target: FormField) -> float:
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
    # |sigma|^2 = sum_m |s_m|^2 over the full spectrum, zero only at k = 0
    norm2 = np.broadcast_to(sum(np.abs(s) ** 2 for s in syms), grid.shape)
    proj = np.sum(sigma * that, axis=0) / np.where(norm2 > 0, norm2, 1.0)
    res_hat = np.where(norm2 > 0, np.conj(sigma) * proj, that)
    return float(np.max(np.abs(np.fft.ifftn(res_hat, axes=axes))))


def classify_forms(g: HermitianMetricField, tol: float = 1e-8) -> ClassReport:
    """The ClassReport of g from the forms: max-norms of d omega (Kahler),
    d omega^{n-1} (balanced), del dbar omega^{n-1} (Gauduchon), the
    least-squares defect of del beta = dbar omega^{n-1} (strongly Gauduchon)
    and del dbar omega (astheno-Kahler, n = 3), each with complex FFTs of
    the form's coefficients."""
    n = g.n
    omega = g.fundamental_form()
    d_omega = exterior_d(omega)
    d_pow = exterior_d(wedge_power(omega, n - 1)) if n == 3 else d_omega
    kahler, balanced = (max(part.max_norm() for part in d) for d in (d_omega, d_pow))
    gauduchon = exterior_d(d_pow[1])[0].max_norm()
    sg = sg_defect_projection(d_pow[1])
    astheno = exterior_d(d_omega[1])[0].max_norm() if n == 3 else None
    return ClassReport(tol, kahler, balanced, gauduchon, sg, astheno)


# ---------------------------------------------------------------------------
# Hopf Chern-Ricci form by finite differences, one stencil point at a time
# ---------------------------------------------------------------------------

def _shift(point: np.ndarray, axis: int, delta: float) -> np.ndarray:
    p = point.copy()
    p[axis] += delta
    return p


def _mixed_partial(fn, point: np.ndarray, axis_a: int, axis_b: int, h: float) -> float:
    """4th-order centered finite difference of d^2 fn / dr_a dr_b at point."""
    if axis_a == axis_b:
        vals = np.array([fn(_shift(point, axis_a, o * h)) for o in OFFSETS])
        return float(DEGREE2_FD @ vals) / h**2
    vals = np.array(
        [[fn(_shift(_shift(point, axis_a, oa * h), axis_b, ob * h)) for ob in OFFSETS] for oa in OFFSETS]
    )
    return float(DEGREE1_FD @ vals @ DEGREE1_FD) / h**2


def fd_ricci_pointwise(z: np.ndarray, h: float) -> np.ndarray:
    """-d^2 log det g / dz_i dzbar_j at one point z by finite differences in
    R^{2n}: one Python call and one np.linalg.det per stencil point."""
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


def fd_ricci_full_stencil(z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The finite differences of fd_ricci_pointwise at each row of z (P, n)
    with step h (P,), batched: the potential on all 5 x 5 points of the
    stencil of every ordered pair of axes, zero weights included."""
    num, n = z.shape
    m = 2 * n
    eye = np.eye(m)
    shift = (
        eye[:, None, None, None, :] * OFFSETS[None, None, :, None, None]
        + eye[None, :, None, None, :] * OFFSETS[None, None, None, :, None]
    )  # (2n, 2n, 5, 5, 2n)
    diag = np.arange(m)
    point = np.concatenate([z.real, z.imag], axis=1)
    p = point[:, None, None, None, None, :] + h[:, None, None, None, None, None] * shift
    u = -np.log(smallmat.stack_minors(smallmat.hermitian_stack(hopf_metric_matrix(p[..., :n] + 1j * p[..., n:])))[-1])
    # DEGREE1_FD on both offsets off the diagonal, DEGREE2_FD along the one
    # shifted axis on it
    d2 = np.einsum("pabst,s,t->pab", u, DEGREE1_FD, DEGREE1_FD)
    d2[:, diag, diag] = u[..., 2][:, diag, diag] @ DEGREE2_FD
    d2 /= h[:, None, None] ** 2
    xx, xy = d2[:, :n, :n], d2[:, :n, n:]
    yx, yy = d2[:, n:, :n], d2[:, n:, n:]
    return 0.25 * (xx + 1j * xy - 1j * yx + yy)


# ---------------------------------------------------------------------------
# Random band-limited fields and metrics
# ---------------------------------------------------------------------------

def random_bandlimited(grid: PeriodicGrid, rng, amp=1.0, kmax=2, terms=5, complex_valued=False):
    """Sum of a few low-frequency plane waves; smooth, exactly periodic."""
    coords = grid.coordinates()
    vals = np.zeros(grid.shape, dtype=np.complex128)
    names = [f"x{i}" for i in range(1, grid.n + 1)] + [f"y{i}" for i in range(1, grid.n + 1)]
    active = [name for name in names if coords[name].size > 1]
    for _ in range(terms):
        phase = np.zeros(grid.shape)
        for name in active:
            k = int(rng.integers(-kmax, kmax + 1))
            phase = phase + 2.0 * np.pi * k * coords[name]
        c = amp * (rng.normal() + (1j * rng.normal() if complex_valued else 0.0))
        vals = vals + c * np.exp(1j * phase)
    if not complex_valued:
        vals = vals.real.astype(np.complex128)
    return vals


def random_metric(grid: PeriodicGrid, rng, amp=0.1, kmax=2) -> HermitianMetricField:
    """Identity plus a small band-limited Hermitian perturbation (stays PD)."""
    n = grid.n
    g = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    for i in range(n):
        g[..., i, i] = 1.0 + random_bandlimited(grid, rng, amp=amp, kmax=kmax).real
        for j in range(i + 1, n):
            off = random_bandlimited(grid, rng, amp=amp / 2, kmax=kmax, complex_valued=True)
            g[..., i, j] = off
            g[..., j, i] = np.conj(off)
    return HermitianMetricField(grid, g)


def bump_metric(grid: PeriodicGrid) -> HermitianMetricField:
    """Diagonal metric with g_11 = 1 + cos(2 pi x2)/2, the rest identity."""
    n = grid.n
    x2 = grid.coordinate(grid.axis_of("x", 2))
    g = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    for i in range(n):
        g[..., i, i] = 1.0
    g[..., 0, 0] = 1.0 + 0.5 * np.cos(2.0 * np.pi * x2)
    return HermitianMetricField(grid, g)


def rk2_flow(g: HermitianMetricField, dt: float):
    """The flow's oracle: explicit midpoint steps of dg/dt = -Ric(g) on the
    metric itself, stable for dt up to 2 / (pi^2 sum of kmax^2).  Yields
    (t, g, Ric g) from t = 0 on, one step at a time."""
    R = ricci_tensor(g)
    for step in count():
        yield step * dt, g, R
        mid = HermitianMetricField(g.grid, g.g - (0.5 * dt) * R)
        g = HermitianMetricField(g.grid, g.g - dt * ricci_tensor(mid))
        R = ricci_tensor(g)


def field(grid: PeriodicGrid, values) -> ScalarField:
    return ScalarField(grid, np.asarray(values, dtype=np.complex128))


# ---------------------------------------------------------------------------
# Complex forms of the Newton operator and its preconditioner
# ---------------------------------------------------------------------------

def complex_newton_row(grid: PeriodicGrid, K: np.ndarray, w: np.ndarray, dphi: np.ndarray, db: float) -> np.ndarray:
    """The Newton operator, w Re tr(K Hess dphi) - db w, from the full
    complex Hessian of dphi."""
    H = hessian_values(dphi.astype(np.complex128), grid)
    return (w * np.einsum("...ij,...ji->...", K, H)).real - db * w


def complex_preconditioner(grid: PeriodicGrid, c: float, rhs_weight: np.ndarray, r: np.ndarray):
    """The step (dphi, db) of a vector r of grid.num_points entries: a
    flat-Laplacian solve on complex spectra, with the mean of r sent to db."""
    sym = -sum(np.abs(s) ** 2 for s in _z_symbols(grid))  # over the full spectrum
    axes = grid.active_axes
    npts = grid.num_points
    rhat = np.fft.fftn(r.reshape(grid.shape), axes=axes)
    zero = (0,) * len(grid.shape)
    db = -rhat[zero].real / npts / float(np.mean(rhs_weight))
    with np.errstate(divide="ignore", invalid="ignore"):
        phat = np.where(sym != 0.0, rhat / (c * sym), 0.0)
    return np.fft.ifftn(phat, axes=axes).real, db


# ---------------------------------------------------------------------------
# Cross-checks the package does not call
# ---------------------------------------------------------------------------

def basis_keys(n: int, p: int, q: int):
    """The (I, J) keys of the (p,q)-form basis, increasing multi-indices."""
    for I in combinations(range(n), p):
        for J in combinations(range(n), q):
            yield I, J


def spectral_partial(values: np.ndarray, grid: PeriodicGrid, i: int):
    """(d/dz_i, d/dzbar_i) of a field, i 1-based: the coefficients of
    (del f, dbar f) for the 0-form f."""
    del_f, dbar_f = exterior_d(FormField(grid, 0, 0, {((), ()): values}))
    return del_f.coefficient((i - 1,), ()), dbar_f.coefficient((), (i - 1,))


def chern_connection(g: HermitianMetricField) -> np.ndarray:
    """Connection coefficients Gamma[..., k, i, j] = Gamma^k_{ij}
    = g^{k lbar} d g_{j lbar} / dz_i, on the complex spectra of all n^2
    entries.  The oracle of the trace that metric.parallel_section_check
    takes from log det g."""
    axes = g.grid.active_axes
    ghat = np.fft.fftn(g.g, axes=axes)
    # dg[..., i, j, l] = d g_{j lbar} / dz_i
    dg = np.fft.ifftn(
        np.stack([s[..., None, None] * ghat for s in _z_symbols(g.grid)], axis=-3), axes=axes
    )
    # g^{k lbar}: sum_l up[k, l] g_{m lbar} = delta_km  =>  up = inv(g^T) = inv(g)^T
    up = np.swapaxes(g.inverse(), -1, -2)
    return np.einsum("...kl,...ijl->...kij", up, dg)


def mean(f: ScalarField) -> complex:
    """Arithmetic average over grid points (= torus integral, unit volume)."""
    return complex(np.mean(f.values))


def is_real(f: ScalarField) -> bool:
    return bool(np.max(np.abs(f.values.imag)) <= 1e-12 * max(1.0, np.max(np.abs(f.values))))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^H) / 2 of a matrix field."""
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def metric_from_form(omega: FormField) -> HermitianMetricField:
    """Inverse of fundamental_form for a positive real (1,1)-form."""
    if (omega.p, omega.q) != (1, 1):
        raise MetricError("need a (1,1)-form")
    n = omega.grid.n
    g = np.empty(omega.grid.shape + (n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            g[..., i, j] = omega.coefficient((i,), (j,)) / 1j
    return HermitianMetricField(omega.grid, hermitian_part(g))


def uniqueness_probe(solver, guess_a: np.ndarray, guess_b: np.ndarray) -> float:
    """Max |phi_a - phi_b| after mean-zero normalization of two solver runs.

    solver is a callable mapping an initial guess to an MASolution.
    """
    sol_a = solver(guess_a)
    sol_b = solver(guess_b)
    pa = sol_a.phi.values.real
    pb = sol_b.phi.values.real
    return float(np.max(np.abs((pa - pa.mean()) - (pb - pb.mean()))))


def assert_carries_its_stack(metric: HermitianMetricField) -> None:
    """metric.stack is the real stack of metric.g, and both are read-only."""
    assert np.array_equal(metric.stack, smallmat.hermitian_stack(metric.g))
    assert not metric.stack.flags.writeable and not metric.g.flags.writeable


def rebind_in_hermweb(monkeypatch, orig, new) -> None:
    """Replace every binding of orig in a hermweb module by new."""
    for name, module in list(sys.modules.items()):
        if name == "hermweb" or name.startswith("hermweb."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, new)


def refuse_hermitian_stack(monkeypatch) -> None:
    """Make every hermweb binding of smallmat.hermitian_stack raise."""

    def refuse(a):
        raise AssertionError("hermitian_stack called")

    rebind_in_hermweb(monkeypatch, smallmat.hermitian_stack, refuse)


def hermitian_hessian_multipliers_full_grid(grid: PeriodicGrid) -> np.ndarray:
    """grid._hermitian_hessian_multipliers built on the full spectrum from the
    complex Hessian symbols m_ij = -s_i conj(s_j) and their reflections, then
    cut to the rfft_active half spectrum."""
    n = grid.n
    axes = [a + 2 for a in grid.active_axes]
    syms = _z_symbols(grid)
    m = np.stack([np.broadcast_to(-si * np.conj(sj), grid.shape) for si in syms for sj in syms])
    m = m.reshape((n, n) + grid.shape)

    def reflect(a):
        for ax in axes:
            a = np.roll(np.flip(a, ax), 1, ax)
        return a

    h = 0.5 * (m + np.conj(np.swapaxes(reflect(m), 0, 1)))
    h_neg = np.conj(reflect(h))
    d, iu, ju = smallmat._stack_index(n)
    mult = np.concatenate([h[d, d], 0.5 * (h + h_neg)[iu, ju], -0.5j * (h - h_neg)[iu, ju]])
    half = [slice(None)] * (1 + len(grid.sizes))
    if grid.active_axes:
        last = grid.active_axes[-1]
        half[1 + last] = slice(grid.sizes[last] // 2 + 1)
    return mult[tuple(half)]


def count_hermitian_from_stack(monkeypatch) -> list:
    """Record the stack shape of every call of smallmat.hermitian_from_stack
    through a hermweb binding, in the list returned."""
    orig = smallmat.hermitian_from_stack
    calls = []

    def counting(S):
        calls.append(S.shape)
        return orig(S)

    rebind_in_hermweb(monkeypatch, orig, counting)
    return calls


def stack_adjugate_expressions(S: np.ndarray) -> np.ndarray:
    """smallmat.stack_adjugate as one expression per entry, stacked: the
    same products, sums and differences in the same order, so equal to it
    bit for bit."""
    if len(S) == 4:
        d0, d1, x01, y01 = S
        return np.stack([d1, d0, -x01, -y01])
    d0, d1, d2, x01, x02, x12, y01, y02, y12 = S
    return np.stack([
        d1 * d2 - (x12 * x12 + y12 * y12),
        d0 * d2 - (x02 * x02 + y02 * y02),
        d0 * d1 - (x01 * x01 + y01 * y01),
        x02 * x12 + y02 * y12 - d2 * x01,
        x01 * x12 - y01 * y12 - d1 * x02,
        x01 * x02 + y01 * y02 - d0 * x12,
        y02 * x12 - x02 * y12 - d2 * y01,
        x01 * y12 + y01 * x12 - d1 * y02,
        x01 * y02 - y01 * x02 - d0 * y12,
    ])


class _Captured(Exception):
    pass


def ma3_closures(monkeypatch, g, g0, F):
    """The lhs and coefficients closures solve_ma3 builds for (g, g0, F),
    taken from its call of _newton_loop, which does not run."""
    closures = []

    def newton_loop(grid, cfg, lhs_fn, coefficients_fn, *args):
        closures.extend([lhs_fn, coefficients_fn])
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(ma, "_newton_loop", newton_loop)
        try:
            ma.solve_ma3(g, g0, F)
        except _Captured:
            pass
    lhs, coefficients = closures
    return lhs, coefficients
