"""Closed-form kernels against LAPACK on random Hermitian fields."""

import numpy as np
import pytest

from hermweb.smallmat import det, inverse, leading_minors

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


def test_kernels_reject_larger_fields():
    a = np.broadcast_to(np.eye(4), (3, 4, 4))
    for fn in (det, inverse, leading_minors):
        with pytest.raises(ValueError):
            fn(a)
