"""Closed-form kernels against LAPACK on random Hermitian fields."""

import numpy as np
import pytest

from hermweb.grid import hermitian_stack
from hermweb.smallmat import det, inverse, leading_minors, mixed_adjugate, stack_minors

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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["positive", "indefinite", "ill_conditioned"])
def test_kernels_match_lapack(n, kind):
    rng = np.random.default_rng(10 * n + len(kind))
    a = hermitian_field(rng, n, kind)
    # errors of both routes scale with the entries (det) and with the
    # condition number (inverse), so compare relative to those
    scale = np.max(np.abs(a), axis=(-1, -2))
    ref = np.linalg.det(a).real
    assert np.all(np.abs(det(a) - ref) <= RTOL * scale**n)
    for k, minor in enumerate(leading_minors(a), start=1):
        ref_k = np.linalg.det(a[..., :k, :k]).real
        assert np.all(np.abs(minor - ref_k) <= RTOL * scale**k)
    inv_ref = np.linalg.inv(a)
    cond = np.linalg.cond(a)[..., None, None]
    inv_scale = np.max(np.abs(inv_ref), axis=(-1, -2), keepdims=True)
    assert np.all(np.abs(inverse(a) - inv_ref) <= RTOL * cond * inv_scale)
    if kind == "indefinite":
        assert np.min(ref) < 0 < np.max(ref)


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_of_hermitian_is_hermitian_and_inverts(n):
    a = hermitian_field(np.random.default_rng(n), n, "positive", shape=(8, 8))
    inv = inverse(a)
    defect = np.max(np.abs(inv - np.conj(np.swapaxes(inv, -1, -2))))
    assert defect <= 1e-15 * np.max(np.abs(inv))
    eye = np.einsum("...ij,...jk->...ik", inv, a)
    assert np.max(np.abs(eye - np.eye(n))) < 1e-13


def lapack_adjugate(a):
    return np.linalg.inv(a) * np.linalg.det(a)[..., None, None]


@pytest.mark.parametrize("kind", ["positive", "indefinite"])
def test_mixed_adjugate_is_polarised_adjugate(kind):
    rng = np.random.default_rng(30 + len(kind))
    a = hermitian_field(rng, 3, kind)
    b = hermitian_field(rng, 3, "positive")
    expected = lapack_adjugate(a + b) - lapack_adjugate(a) - lapack_adjugate(b)
    scale = np.max(np.abs(a), axis=(-1, -2)) * np.max(np.abs(b), axis=(-1, -2))
    got = mixed_adjugate(a, b)
    assert np.all(np.max(np.abs(got - expected), axis=(-1, -2)) <= 1e-12 * scale)
    assert np.array_equal(got, mixed_adjugate(b, a))
    # the trace form (tr a tr b - tr ab) I - tr a b - tr b a + ab + ba
    tr = lambda m: np.einsum("...ii->...", m)[..., None, None]
    ab, ba = a @ b, b @ a
    trace_form = (tr(a) * tr(b) - tr(ab)) * np.eye(3) - tr(a) * b - tr(b) * a + ab + ba
    assert np.all(np.max(np.abs(got - trace_form), axis=(-1, -2)) <= 1e-12 * scale)


def test_mixed_adjugate_trace_adjoint():
    # tr(P M(H, B)) = tr(M(P, B) H): the form-type solver's Jacobian rests on it
    rng = np.random.default_rng(40)
    p, h, b = (hermitian_field(rng, 3, kind) for kind in ("positive", "indefinite", "positive"))
    lhs = np.einsum("...ij,...ji->...", p, mixed_adjugate(h, b))
    rhs = np.einsum("...ij,...ji->...", mixed_adjugate(p, b), h)
    scale = np.prod([np.max(np.abs(m), axis=(-1, -2)) for m in (p, h, b)], axis=0)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def test_mixed_adjugate_broadcasts_and_rejects_2x2():
    a = hermitian_field(np.random.default_rng(50), 3, "positive")
    eye = np.eye(3)
    # M(a, I) = tr(a) I - a
    expected = np.einsum("...ii->...", a)[..., None, None] * eye - a
    assert np.max(np.abs(mixed_adjugate(a, eye) - expected)) < 1e-12
    with pytest.raises(ValueError):
        mixed_adjugate(np.eye(2), np.eye(2))


def test_kernels_reject_larger_fields():
    a = np.broadcast_to(np.eye(4), (3, 4, 4))
    for fn in (det, inverse, leading_minors):
        with pytest.raises(ValueError):
            fn(a)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["positive", "indefinite", "ill_conditioned"])
def test_stack_minors_match_leading_minors(n, kind):
    # the minors of the real stack against those of the complex field; both
    # expand in products of k entries, so the error scales with max|a|^k
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
