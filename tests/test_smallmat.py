"""Closed-form stack kernels against LAPACK on random Hermitian fields."""

from itertools import permutations

import numpy as np
import pytest

from hermweb import ma as ma_module
from hermweb.grid import PeriodicGrid, ScalarField, hermitian_hessian_stack
from hermweb.metric import HermitianMetricField
from hermweb.metric import minors_positive
from hermweb.smallmat import (
    constant_column,
    hermitian_from_stack,
    hermitian_stack,
    stack_adjugate,
    stack_det_from_adjugate,
    stack_max_modulus,
    stack_minors,
)

from helpers import ma3_closures, stack_adjugate_expressions

RTOL = 1e-12


def hermitian_field(rng, n, kind, shape=(64,)):
    """Random Hermitian (..., n, n) fields: well-conditioned positive
    definite, indefinite, or positive definite with condition number ~1e6."""
    m = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    h = m + np.conj(np.swapaxes(m, -1, -2))
    if kind == "positive":
        return h + 4.0 * n * np.eye(n)
    if kind == "indefinite":
        return h
    q, _ = np.linalg.qr(m)
    eig = np.geomspace(1.0, 1e-6, n) * rng.uniform(0.5, 2.0, size=shape + (1,))
    return np.einsum("...ik,...k,...jk->...ij", q, eig, np.conj(q))


def leading_minors(a):
    """Leading principal minors (real parts), orders 1..n, by the Leibniz
    expansion over permutations."""
    minors = []
    for k in range(1, a.shape[-1] + 1):
        total = 0.0
        for p in permutations(range(k)):
            # the parity of p from its inversions
            sign = (-1) ** sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k))
            total = total + sign * np.prod([a[..., i, p[i]] for i in range(k)], axis=0)
        minors.append(total.real)
    return minors


def lapack_adjugate(a):
    return np.linalg.inv(a) * np.linalg.det(a)[..., None, None]


def polarised(a, b):
    """The stack polarisation M(a, b) = adj(a + b) - adj a - adj b of complex
    3x3 fields, assembled."""
    A, B = hermitian_stack(a), hermitian_stack(b)
    return hermitian_from_stack(stack_adjugate(A + B) - stack_adjugate(A) - stack_adjugate(B))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["positive", "indefinite", "ill_conditioned"])
def test_kernels_match_lapack(n, kind):
    rng = np.random.default_rng(10 * n + len(kind))
    a = hermitian_field(rng, n, kind)
    S = hermitian_stack(a)
    minors = stack_minors(S)
    # errors of both routes scale with the entries (det, adjugate) and with
    # the condition number (inverse, LAPACK's adjugate), so compare relative
    # to those
    scale = np.max(np.abs(a), axis=(-1, -2))
    ref = np.linalg.det(a).real
    assert np.all(np.abs(minors[-1] - ref) <= RTOL * scale**n)
    for k, minor in enumerate(minors, start=1):
        ref_k = np.linalg.det(a[..., :k, :k]).real
        assert np.all(np.abs(minor - ref_k) <= RTOL * scale**k)
    inv_ref = np.linalg.inv(a)
    cond = np.linalg.cond(a)[..., None, None]
    inv_scale = np.max(np.abs(inv_ref), axis=(-1, -2), keepdims=True)
    inverse = hermitian_from_stack(stack_adjugate(S) / minors[-1])
    assert np.all(np.abs(inverse - inv_ref) <= RTOL * cond * inv_scale)
    adj_ref = lapack_adjugate(a)
    adj_scale = np.max(np.abs(adj_ref), axis=(-1, -2), keepdims=True)
    adj = hermitian_from_stack(stack_adjugate(S))
    assert np.all(np.abs(adj - adj_ref) <= RTOL * cond * adj_scale)
    assert stack_max_modulus(S) == pytest.approx(np.max(np.abs(a)), rel=1e-15)
    if kind == "indefinite":
        assert np.min(ref) < 0 < np.max(ref)


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_of_hermitian_is_hermitian_and_inverts(n):
    a = hermitian_field(np.random.default_rng(n), n, "positive", shape=(8, 8))
    grid = PeriodicGrid(n, (8, 8) + (1,) * (2 * n - 2))
    inv = HermitianMetricField(grid, a.reshape(grid.shape + (n, n))).inverse().reshape(a.shape)
    defect = np.max(np.abs(inv - np.conj(np.swapaxes(inv, -1, -2))))
    assert defect <= 1e-15 * np.max(np.abs(inv))
    eye = np.einsum("...ij,...jk->...ik", inv, a)
    assert np.max(np.abs(eye - np.eye(n))) < 1e-13


@pytest.mark.parametrize("kind", ["positive", "indefinite"])
def test_mixed_adjugate_is_polarised_adjugate(kind):
    rng = np.random.default_rng(30 + len(kind))
    a = hermitian_field(rng, 3, kind)
    b = hermitian_field(rng, 3, "positive")
    expected = lapack_adjugate(a + b) - lapack_adjugate(a) - lapack_adjugate(b)
    scale = np.max(np.abs(a), axis=(-1, -2)) * np.max(np.abs(b), axis=(-1, -2))
    got = polarised(a, b)
    assert np.all(np.max(np.abs(got - expected), axis=(-1, -2)) <= 1e-12 * scale)
    # the trace form (tr a tr b - tr ab) I - tr a b - tr b a + ab + ba
    tr = lambda m: np.einsum("...ii->...", m)[..., None, None]
    ab, ba = a @ b, b @ a
    trace_form = (tr(a) * tr(b) - tr(ab)) * np.eye(3) - tr(a) * b - tr(b) * a + ab + ba
    assert np.all(np.max(np.abs(got - trace_form), axis=(-1, -2)) <= 1e-12 * scale)


def test_mixed_adjugate_trace_adjoint():
    # tr(P M(H, B)) = tr(M(P, B) H): the form-type solver's Jacobian rests on
    # it.  The traces are taken on stacks, as the Newton operator takes them:
    # tr(P Q) sums the products of the rows, the off-diagonal rows twice
    rng = np.random.default_rng(40)
    kinds = ("positive", "indefinite", "positive")
    P, H, B = (hermitian_stack(hermitian_field(rng, 3, kind)) for kind in kinds)
    M = lambda X: stack_adjugate(X + B) - stack_adjugate(X) - stack_adjugate(B)
    weights = np.array([1.0] * 3 + [2.0] * 6)[:, None]
    lhs = np.sum(weights * P * M(H), axis=0)
    rhs = np.sum(weights * M(P) * H, axis=0)
    scale = np.prod([stack_max_modulus(X) for X in (P, H, B)])
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)
    # the stack contraction is the complex trace
    p, m = hermitian_from_stack(P), hermitian_from_stack(M(H))
    complex_trace = np.einsum("...ij,...ji->...", p, m).real
    assert np.all(np.abs(lhs - complex_trace) <= 1e-12 * scale)


def test_mixed_adjugate_with_the_identity_broadcasts():
    a = hermitian_field(np.random.default_rng(50), 3, "positive")
    A = hermitian_stack(a)
    I = hermitian_stack(np.eye(3))[:, None]
    # M(a, I) = tr(a) I - a, with the identity's stack broadcast over the field
    expected = np.einsum("...ii->...", a)[..., None, None] * np.eye(3) - a
    got = hermitian_from_stack(stack_adjugate(A + I) - stack_adjugate(A) - stack_adjugate(I))
    assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("shape", [(), (1,), (64,), (64, 1), (8, 4, 1, 1)])
def test_stack_adjugate_equals_the_expression_form(n, shape):
    # written row by row into one output, the adjugate keeps each entry's
    # order of operations, on a single matrix and with trailing singleton
    # axes alike, and leaves its input as it was
    S = hermitian_stack(hermitian_field(np.random.default_rng(70 + n + len(shape)), n, "indefinite", shape=shape))
    before = S.copy()
    got = stack_adjugate(S)
    assert got.shape == S.shape and got.dtype == S.dtype
    assert np.array_equal(got, stack_adjugate_expressions(S))
    assert np.array_equal(S, before)


def test_kernels_reject_larger_fields():
    S = hermitian_stack(np.broadcast_to(np.eye(4), (3, 4, 4)))
    for fn in (stack_minors, stack_adjugate, stack_max_modulus):
        with pytest.raises(ValueError):
            fn(S)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["positive", "indefinite", "ill_conditioned"])
def test_stack_minors_match_leading_minors(n, kind):
    # the minors of the real stack against the Leibniz expansion of the
    # complex field; both expand in products of k entries, so the error
    # scales with max|a|^k
    rng = np.random.default_rng(60 + 10 * n + len(kind))
    a = hermitian_field(rng, n, kind)
    scale = np.max(np.abs(a), axis=(-1, -2))
    got, want = stack_minors(hermitian_stack(a)), leading_minors(a)
    assert len(got) == n
    for k, (minor, ref) in enumerate(zip(got, want), start=1):
        assert np.all(np.abs(minor - ref) <= 1e-13 * scale**k)


def test_stack_minors_reject_other_stacks():
    with pytest.raises(ValueError):
        stack_minors(np.ones((16, 8)))


@pytest.mark.parametrize("kind", ["positive", "indefinite", "ill_conditioned"])
def test_adjugate_of_adjugate_is_det_times_matrix(kind):
    # adj(adj a) = det(a) a for 3x3 matrices; both sides are quartic in the
    # entries, so the error is relative to max|a|^4 at each point
    a = hermitian_field(np.random.default_rng(40 + len(kind)), 3, kind)
    S = hermitian_stack(a)
    got = stack_adjugate(stack_adjugate(S))
    expected = stack_minors(S)[-1] * S
    scale = np.max(np.abs(a), axis=(-1, -2)) ** 4
    assert np.all(np.max(np.abs(got - expected), axis=0) <= 1e-13 * scale)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["positive", "indefinite", "ill_conditioned"])
def test_det_from_adjugate_matches_the_minors(n, kind):
    rng = np.random.default_rng(30 + 10 * n + len(kind))
    a = hermitian_field(rng, n, kind, shape=(4096,))
    S = hermitian_stack(a)
    adj = stack_adjugate(S)
    det = stack_det_from_adjugate(S, adj)
    minors = stack_minors(S)
    scale = np.max(np.abs(a), axis=(-1, -2))
    assert np.all(np.abs(det - minors[-1]) <= RTOL * scale**n)
    if n == 3:
        # adj(a)_33 is the leading 2x2 minor, the same expression
        assert np.array_equal(adj[2], minors[1])


def test_sylvester_from_the_adjugate_decides_like_the_minors():
    # solve_ma3's test on a_11, adj(a)_33 and the det from adj a, against
    # stack_minors, on stacks shifted from indefinite to positive definite,
    # field by field and point by point
    rng = np.random.default_rng(40)
    decisions = set()
    for shift in (-2.0, 0.0, 2.0, 4.0, 6.0, 30.0):
        a = hermitian_field(rng, 3, "indefinite", shape=(512,)) + shift * np.eye(3)
        S = hermitian_stack(a)
        adj = stack_adjugate(S)
        mine = [S[0], adj[2], stack_det_from_adjugate(S, adj)]
        theirs = stack_minors(S)
        assert minors_positive(mine) == minors_positive(theirs)
        decisions.add(minors_positive(mine))
        for point in range(512):
            at = slice(point, point + 1)
            decision = minors_positive([m[at] for m in mine])
            assert decision == minors_positive([m[at] for m in theirs])
            decisions.add(decision)
    assert decisions == {True, False}
    assert minors_positive(mine)


MA3_GRID = PeriodicGrid(3, (8, 8, 1, 1, 1, 1))


def ma3_newton_terms(S0, rng, monkeypatch):
    """solve_ma3's closures on a random g and the reference stack S0, at a
    random Hessian stack H: (adj Lambda from the residual, the adjugate of
    the direct value adj g + 1/2 M(H, g0), the coefficients WK, the
    three-adjugate form M(adj Lambda, g0) / (4 det(Lambda)^{1/2})), and the
    checks of the weight and of WK against that form."""
    grid = MA3_GRID
    g = np.eye(3) + 0.05 * hermitian_field(rng, 3, "indefinite", shape=grid.shape)
    lhs, coefficients = ma3_closures(
        monkeypatch,
        HermitianMetricField(grid, g),
        HermitianMetricField.from_stack(grid, S0),
        ScalarField(grid, np.zeros(grid.shape)),
    )
    H = 0.05 * hermitian_stack(hermitian_field(rng, 3, "indefinite", shape=grid.shape))
    _, (adj_lam, dets) = lhs(H)
    WK, w = coefficients((adj_lam, dets))
    adj_S0 = stack_adjugate(S0)
    expected = ma_module._polarised_adjugate(adj_lam, S0, adj_S0) / (4.0 * dets)
    assert np.array_equal(w, dets)
    assert np.max(np.abs(WK - expected)) <= 1e-12 * np.max(np.abs(expected))
    lam_direct = stack_adjugate(hermitian_stack(g)) + 0.5 * ma_module._polarised_adjugate(H, S0, adj_S0)
    return adj_lam, stack_adjugate(lam_direct), WK, expected


def test_ma3_coefficient_equals_the_three_adjugate_form(monkeypatch):
    # a constant g0: P(H) and the coefficient P(adj Lambda) come from its
    # 9x9 matrix, equal to the adjugates to round-off
    rng = np.random.default_rng(50)
    S0 = hermitian_stack(np.eye(3) + 0.05 * hermitian_field(rng, 3, "indefinite", shape=()))
    S0 = np.broadcast_to(S0.reshape((9,) + (1,) * 6), (9,) + MA3_GRID.shape).copy()
    adj_lam, adj_direct, _, _ = ma3_newton_terms(S0, rng, monkeypatch)
    assert np.max(np.abs(adj_lam - adj_direct)) <= 1e-13 * np.max(np.abs(adj_direct))


def test_ma3_coefficient_on_a_varying_reference_takes_the_adjugates(monkeypatch):
    # a Kahler I + Hess f that varies: P(H) = 1/2 M(H, g0) by the adjugates
    # gives Lambda = adj g + 1/2 M(H, g0) bit for bit, and the coefficient
    # P(adj Lambda) / (2 det(Lambda)^{1/2}) is the three-adjugate form
    x1, x2 = np.meshgrid(np.arange(8) / 8, np.arange(8) / 8, indexing="ij")
    f = 0.01 * (np.cos(2 * np.pi * x1) + np.sin(2 * np.pi * (x1 - x2))).reshape(MA3_GRID.shape)
    S0 = hermitian_stack(np.broadcast_to(np.eye(3), MA3_GRID.shape + (3, 3))) + hermitian_hessian_stack(f, MA3_GRID)
    adj_lam, adj_direct, WK, expected = ma3_newton_terms(S0, np.random.default_rng(51), monkeypatch)
    assert np.array_equal(adj_lam, adj_direct)
    assert np.array_equal(WK, expected)


@pytest.mark.parametrize("shape", [(), (1,), (64,), (8, 4, 1, 1)], ids=["matrix", "one_point", "line", "grid"])
def test_constant_column_is_the_value_of_a_constant_stack(shape):
    rng = np.random.default_rng(len(shape))
    column = rng.normal(size=9)
    S = np.broadcast_to(column.reshape((9,) + (1,) * len(shape)), (9,) + shape).copy()
    assert np.array_equal(constant_column(S), column)
    if S[0].size > 1:
        # one entry one ulp off the constant at one point
        flat = S.reshape(9, -1)
        flat[4, -1] = np.nextafter(flat[4, -1], np.inf)
        assert constant_column(S) is None
