"""Hermitian 2x2 and 3x3 matrix fields as real stacks, and their closed-form
leading minors and adjugates.

A Hermitian (..., n, n) field a is held as n^2 real fields stacked on a first
axis: the n diagonal entries a_ii, then Re a_ij and then Im a_ij of the upper
entries i < j in np.triu_indices order.  This module owns that layout:
hermitian_stack and hermitian_from_stack convert at the complex API boundary,
metric.HermitianMetricField, which holds each metric as its stack and
assembles the complex field with hermitian_from_stack on its first read; the
kernels work on the stack alone.  The inverse is adj a / det a and the
polarised adjugate M(a, b) = adj(a + b) - adj a - adj b.  Given adj a,
stack_det_from_adjugate expands det a along the first row, and adj(a)_nn
is the leading (n-1)-minor, so one adjugate gives all three leading
minors of a 3x3 field.  constant_column tells whether a stack is constant
over the grid: solve_ma3 takes M(., g0) of a constant reference as a 9x9
matrix.

Metrics here are 2x2 or 3x3 at every grid point.  Cofactor expansion costs a
few whole-field array operations per entry, where a batched LAPACK call pays
an LU factorisation per point.  The 3x3 adjugate writes its nine rows into
one output through two scratch rows, each in its expression's order of
operations: on 16^3 a call took about 96 us, against 132 us for nine
expressions and np.stack (one BLAS thread, 2-vCPU host).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=4)
def _stack_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The diagonal and the upper (i < j) index pairs of an n x n matrix, in
    the order of the real stacks."""
    return (np.arange(n),) + np.triu_indices(n, 1)


def _order(S: np.ndarray) -> int:
    """n of the n x n field whose stack is S, for the kernels' n = 2, 3."""
    if len(S) not in (4, 9):
        raise ValueError(f"need the 4- or 9-row stack of a 2x2 or 3x3 field, got {len(S)} rows")
    return 2 if len(S) == 4 else 3


def hermitian_stack(a: np.ndarray) -> np.ndarray:
    """The real stack of the Hermitian part (a + a^H)/2 of a (..., n, n) field."""
    n = a.shape[-1]
    _, iu, ju = _stack_index(n)
    k = len(iu)
    # Re and Im of each entry as float columns, one row per point: a
    # strided column copy per stack row is cheaper than fancy indexing
    e = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64).reshape(-1, n, n, 2)
    S = np.empty((n + 2 * k, len(e)))
    for r in range(n):
        S[r] = e[:, r, r, 0]
    for r, (i, j) in enumerate(zip(iu, ju)):
        np.add(e[:, i, j, 0], e[:, j, i, 0], out=S[n + r])
        np.subtract(e[:, i, j, 1], e[:, j, i, 1], out=S[n + k + r])
    S[n:] *= 0.5
    return S.reshape(S.shape[:1] + a.shape[:-2])


def hermitian_from_stack(S: np.ndarray) -> np.ndarray:
    """The exactly Hermitian (..., n, n) field of a real stack S."""
    n = round(len(S) ** 0.5)
    d, iu, ju = _stack_index(n)
    k = len(iu)
    H = np.empty(S.shape[1:] + (n, n), dtype=np.complex128)
    # written through a view with the matrix axes first, like the stack's
    entries = H.transpose(-2, -1, *range(H.ndim - 2))
    entries[d, d] = S[:n]
    upper = S[n : n + k] + 1j * S[n + k :]
    entries[iu, ju] = upper
    entries[ju, iu] = upper.conj()
    return H


def constant_column(S: np.ndarray) -> np.ndarray | None:
    """The column of a real stack S, one value per row, if S is constant
    over the grid; None if any row varies."""
    rows = S.reshape(len(S), -1)
    return rows[:, 0].copy() if (rows == rows[:, :1]).all() else None


def stack_max_modulus(S: np.ndarray) -> float:
    """max |a_ij| of the Hermitian field with real stack S: |a_ii| on the
    diagonal rows, hypot(Re, Im) on the upper entries."""
    n = _order(S)
    k = (len(S) - n) // 2
    return float(max(np.abs(S[:n]).max(), np.hypot(S[n : n + k], S[n + k :]).max()))


def stack_minors(S: np.ndarray) -> list[np.ndarray]:
    """Leading principal minors, orders 1..n, of the Hermitian 2x2 or 3x3
    field whose real stack is S.  The last minor is the determinant."""
    if _order(S) == 2:
        d0, d1, x01, y01 = S
        return [d0, d0 * d1 - (x01 * x01 + y01 * y01)]
    d0, d1, d2, x01, x02, x12, y01, y02, y12 = S
    minor2 = d0 * d1 - (x01 * x01 + y01 * y01)
    # 2 Re(a01 a12 conj a02), the two cyclic products of the off-diagonal entries
    cyclic = 2.0 * ((x01 * x12 - y01 * y12) * x02 + (x01 * y12 + y01 * x12) * y02)
    det = d2 * minor2 - d0 * (x12 * x12 + y12 * y12) - d1 * (x02 * x02 + y02 * y02) + cyclic
    return [d0, minor2, det]


def stack_det_from_adjugate(S: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """det a from the stacks S of a and adj of adj a, by the expansion along
    the first row: det a = sum_j a_1j adj_j1 = a_11 adj_11
    + sum_{j > 1} Re(a_1j conj adj_1j), as adj is Hermitian and det a real.
    The upper entries of the first row are the first n - 1 of the stack."""
    n = _order(S)
    k = (len(S) - n) // 2
    det = S[0] * adj[0]
    for r in (*range(n, 2 * n - 1), *range(n + k, n + k + n - 1)):
        det += S[r] * adj[r]
    return det


def stack_adjugate(S: np.ndarray) -> np.ndarray:
    """The real stack of adj a = det(a) a^{-1} of the Hermitian 2x2 or 3x3
    field a whose real stack is S.

    For 3x3 fields adj_ii is the complementary principal 2x2 minor and
    adj_ij = a_ik a_kj - a_kk a_ij for i < j, k the third index, each row
    written into one output through two scratch rows."""
    if _order(S) == 2:
        d0, d1, x01, y01 = S
        return np.stack([d1, d0, -x01, -y01])
    # flat rows, of shape (1,) for a single matrix, so that every row of the
    # output is a view that ufuncs write into
    d0, d1, d2, x01, x02, x12, y01, y02, y12 = S.reshape(9, -1)
    adj = np.empty((9, math.prod(S.shape[1:])), S.dtype)
    t, u = np.empty((2, adj.shape[1]), S.dtype)
    # d_j d_k - (x_jk^2 + y_jk^2), the minor of the other two indices
    for row, (dj, dk, x, y) in zip(adj, [(d1, d2, x12, y12), (d0, d2, x02, y02), (d0, d1, x01, y01)]):
        np.multiply(x, x, out=t)
        np.multiply(y, y, out=u)
        t += u
        np.multiply(dj, dk, out=row)
        row -= t
    # (p q +- r s) - d c: Re, then Im, of a02 a21 - d2 a01, a01 a12 - d1 a02
    # and a10 a02 - d0 a12, evaluated in this order
    upper = [
        (x02, x12, np.add, y02, y12, d2, x01),
        (x01, x12, np.subtract, y01, y12, d1, x02),
        (x01, x02, np.add, y01, y02, d0, x12),
        (y02, x12, np.subtract, x02, y12, d2, y01),
        (x01, y12, np.add, y01, x12, d1, y02),
        (x01, y02, np.subtract, y01, x02, d0, y12),
    ]
    for row, (p, q, op, r, s, d, c) in zip(adj[3:], upper):
        np.multiply(p, q, out=row)
        np.multiply(r, s, out=t)
        op(row, t, out=row)
        np.multiply(d, c, out=t)
        row -= t
    return adj.reshape(S.shape)
