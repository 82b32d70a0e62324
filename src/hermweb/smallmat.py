"""Closed-form determinant, inverse and leading minors of Hermitian matrix
fields (..., n, n) with n <= 3.

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


def _cofactor3(e, i: int, j: int) -> np.ndarray:
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return e[i1][j1] * e[i2][j2] - e[i1][j2] * e[i2][j1]


def _det(e) -> np.ndarray:
    n = len(e)
    if n == 1:
        return e[0][0].real
    if n == 2:
        return (e[0][0] * e[1][1] - e[0][1] * e[1][0]).real
    c = [_cofactor3(e, 0, j) for j in range(3)]
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
                adj[..., j, i] = _cofactor3(e, i, j)
    adj /= _det(e)[..., None, None]
    return adj


def leading_minors(a: np.ndarray) -> list[np.ndarray]:
    """Leading principal minors (real parts), orders 1..n."""
    e = _entries(a)
    return [_det([row[:k] for row in e[:k]]) for k in range(1, len(e) + 1)]
