"""Closed-form determinant, inverse and leading minors of Hermitian matrix
fields (..., n, n) with n <= 3, the polarised adjugate of 3x3 fields, and
the leading minors of Hermitian 2x2/3x3 fields held as real stacks.

Metrics here are 2x2 or 3x3 at every grid point.  Cofactor expansion costs a
few whole-field array operations per entry, where a batched LAPACK call pays
an LU factorisation per point.  The 3x3 cofactors use cyclic indices,
C[i, j] = a[i+1, j+1] a[i+2, j+2] - a[i+1, j+2] a[i+2, j+1] (mod 3), which
carry their own signs.
"""

from __future__ import annotations

import numpy as np


def _entries(a: np.ndarray) -> list[list[np.ndarray]]:
    n = a.shape[-1]
    if a.shape[-2] != n or not 1 <= n <= 3:
        raise ValueError(f"need a (..., n, n) field with n <= 3, got shape {a.shape}")
    return [[a[..., i, j] for j in range(n)] for i in range(n)]


def _cofactor3(e, f, i: int, j: int) -> np.ndarray:
    """Cofactor C[i, j] with its first factors from e, its second from f."""
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return e[i1][j1] * f[i2][j2] - e[i1][j2] * f[i2][j1]


def _det(e) -> np.ndarray:
    n = len(e)
    if n == 1:
        return e[0][0].real
    if n == 2:
        return (e[0][0] * e[1][1] - e[0][1] * e[1][0]).real
    c = [_cofactor3(e, e, 0, j) for j in range(3)]
    return (e[0][0] * c[0] + e[0][1] * c[1] + e[0][2] * c[2]).real


def det(a: np.ndarray) -> np.ndarray:
    """Real part of det a; the determinant of a Hermitian field is real."""
    return _det(_entries(a))


def inverse(a: np.ndarray) -> np.ndarray:
    """inv(a) as adjugate over determinant: sum_j inv[i, j] a[j, k] = delta_ik."""
    e = _entries(a)
    n = len(e)
    adj = np.empty(a.shape, dtype=np.result_type(a, 1.0))
    if n == 1:
        adj[..., 0, 0] = 1.0
    elif n == 2:
        adj[..., 0, 0] = e[1][1]
        adj[..., 0, 1] = -e[0][1]
        adj[..., 1, 0] = -e[1][0]
        adj[..., 1, 1] = e[0][0]
    else:
        for i in range(3):
            for j in range(3):
                adj[..., j, i] = _cofactor3(e, e, i, j)
    adj /= _det(e)[..., None, None]
    return adj


def mixed_adjugate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Polarised adjugate M(a, b) = adj(a + b) - adj a - adj b of 3x3 fields.

    M is symmetric and bilinear, M(a, a) = 2 adj a, and
    M(a, b) = (tr a tr b - tr ab) I - tr a b - tr b a + ab + ba.  Each cofactor
    takes one factor from each field.
    """
    e, f = _entries(a), _entries(b)
    if len(e) != 3 or len(f) != 3:
        raise ValueError(f"need (..., 3, 3) fields, got shapes {a.shape} and {b.shape}")
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b, 1.0))
    for i in range(3):
        for j in range(3):
            out[..., j, i] = _cofactor3(e, f, i, j) + _cofactor3(f, e, i, j)
    return out


def leading_minors(a: np.ndarray) -> list[np.ndarray]:
    """Leading principal minors (real parts), orders 1..n."""
    e = _entries(a)
    return [_det([row[:k] for row in e[:k]]) for k in range(1, len(e) + 1)]


def stack_minors(S: np.ndarray) -> list[np.ndarray]:
    """Leading principal minors, orders 1..n, of the Hermitian 2x2 or 3x3
    field whose real stack is S, in the layout of grid.hermitian_hessian_stack:
    the n diagonal rows, then Re and then Im of the upper entries in
    np.triu_indices order.  The last minor is the determinant."""
    if len(S) == 4:
        d0, d1, x01, y01 = S
        return [d0, d0 * d1 - (x01 * x01 + y01 * y01)]
    if len(S) != 9:
        raise ValueError(f"need the 4- or 9-row stack of a 2x2 or 3x3 field, got {len(S)} rows")
    d0, d1, d2, x01, x02, x12, y01, y02, y12 = S
    minor2 = d0 * d1 - (x01 * x01 + y01 * y01)
    # 2 Re(a01 a12 conj a02), the two cyclic products of the off-diagonal entries
    cyclic = 2.0 * ((x01 * x12 - y01 * y12) * x02 + (x01 * y12 + y01 * x12) * y02)
    det = d2 * minor2 - d0 * (x12 * x12 + y12 * y12) - d1 * (x02 * x02 + y02 * y02) + cyclic
    return [d0, minor2, det]
