import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermweb.forms import (
    FormError,
    FormField,
    d_max_norm,
    ddbar,
    exterior_d,
    sort_sign,
    wedge,
    wedge_power,
    zero_form,
)
from hermweb.grid import PeriodicGrid, ScalarField

from helpers import (
    basis_keys,
    brute_wedge,
    fd_exterior_d,
    form_to_generators,
    max_diff_generators,
    random_bandlimited,
    sort_parity,
)


def small_grid(n=2):
    sizes = (8, 1) * n
    return PeriodicGrid(n, sizes)


def random_form(grid, p, q, rng):
    coeffs = {
        key: random_bandlimited(grid, rng, complex_valued=True, terms=2)
        for key in basis_keys(grid.n, p, q)
    }
    return FormField(grid, p, q, coeffs)


# ---------------------------------------------------------------------------
# sign bookkeeping
# ---------------------------------------------------------------------------

def test_merge_sign_against_parity_oracle():
    universe = range(5)
    for la in range(3):
        for lb in range(3):
            for a in itertools.combinations(universe, la):
                for b in itertools.combinations(universe, lb):
                    merged, sign = sort_sign(a + b)
                    osign, omerged = sort_parity(a + b)
                    assert sign == osign
                    if sign != 0:
                        assert merged == omerged


@given(st.lists(st.integers(0, 7), min_size=0, max_size=5))
def test_sort_parity_oracle_self_consistent(items):
    # the oracle itself: parity of a permutation equals the sign of the
    # product of pairwise differences
    key = tuple(items)
    sign, merged = sort_parity(key)
    if len(set(key)) != len(key):
        assert sign == 0
    else:
        prod = 1
        for i in range(len(key)):
            for j in range(i + 1, len(key)):
                prod *= 1 if key[j] > key[i] else -1
        assert sign == prod
        assert merged == tuple(sorted(key))


# ---------------------------------------------------------------------------
# FormField construction and access
# ---------------------------------------------------------------------------

def test_formfield_validation():
    grid = small_grid(2)
    with pytest.raises(FormError):
        FormField(grid, 3, 0, {})  # p > n
    with pytest.raises(FormError):
        FormField(grid, 1, 1, {((0, 1), (0,)): 1.0})  # wrong length
    with pytest.raises(FormError):
        FormField(grid, 2, 0, {((1, 0), ()): 1.0})  # not increasing
    with pytest.raises(FormError):
        FormField(grid, 1, 0, {((5,), ()): 1.0})  # out of range


def test_coefficient_with_unsorted_indices():
    grid = small_grid(2)
    a = FormField(grid, 2, 0, {((0, 1), ()): 3.0})
    assert np.all(a.coefficient((0, 1), ()) == 3.0)
    assert np.all(a.coefficient((1, 0), ()) == -3.0)
    assert np.all(a.coefficient((0, 0), ()) == 0.0)


def test_basis_keys_counts():
    from math import comb

    for n in (2, 3):
        for p in range(n + 1):
            for q in range(n + 1):
                assert len(list(basis_keys(n, p, q))) == comb(n, p) * comb(n, q)


def test_add_sub_scale():
    grid = small_grid(2)
    rng = np.random.default_rng(0)
    a = random_form(grid, 1, 1, rng)
    b = random_form(grid, 1, 1, rng)
    s = (a + b) - b
    assert max_diff_generators(form_to_generators(s), form_to_generators(a)) < 1e-14
    assert np.max(np.abs(a.scaled(2.0).coefficient((0,), (1,)) - 2.0 * a.coefficient((0,), (1,)))) == 0.0


# ---------------------------------------------------------------------------
# wedge vs the brute-force generator oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_wedge_matches_brute_force(n):
    grid = small_grid(n)
    rng = np.random.default_rng(42)
    degrees = [(1, 0), (0, 1), (1, 1), (2, 0)] if n == 2 else [(1, 0), (1, 1), (2, 1)]
    for pa, qa in degrees:
        for pb, qb in degrees:
            if pa + pb > n or qa + qb > n:
                continue
            a = random_form(grid, pa, qa, rng)
            b = random_form(grid, pb, qb, rng)
            w = wedge(a, b)
            oracle = brute_wedge(form_to_generators(a), form_to_generators(b))
            assert max_diff_generators(form_to_generators(w), oracle) < 1e-12


def test_wedge_supercommutativity():
    grid = small_grid(3)
    rng = np.random.default_rng(1)
    for (pa, qa), (pb, qb) in [((1, 0), (1, 1)), ((1, 1), (1, 1)), ((0, 1), (1, 0))]:
        a = random_form(grid, pa, qa, rng)
        b = random_form(grid, pb, qb, rng)
        lhs = wedge(a, b)
        sign = (-1.0) ** ((pa + qa) * (pb + qb))
        rhs = wedge(b, a).scaled(sign)
        assert max_diff_generators(form_to_generators(lhs), form_to_generators(rhs)) < 1e-12


def test_wedge_associativity():
    grid = small_grid(3)
    rng = np.random.default_rng(2)
    a = random_form(grid, 1, 0, rng)
    b = random_form(grid, 0, 1, rng)
    c = random_form(grid, 1, 1, rng)
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert max_diff_generators(form_to_generators(lhs), form_to_generators(rhs)) < 1e-12


def test_wedge_power_matches_repeated_wedge():
    grid = small_grid(3)
    rng = np.random.default_rng(3)
    a = random_form(grid, 1, 1, rng)
    assert max_diff_generators(
        form_to_generators(wedge_power(a, 2)), form_to_generators(wedge(a, a))
    ) < 1e-12
    assert max_diff_generators(
        form_to_generators(wedge_power(a, 3)), form_to_generators(wedge(wedge(a, a), a))
    ) < 1e-11


def test_wedge_of_one_forms_squares_to_zero():
    grid = small_grid(2)
    rng = np.random.default_rng(4)
    a = random_form(grid, 1, 0, rng)
    sq = wedge(a, a)
    assert sq.max_norm() < 1e-14


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

def test_ddbar_of_plane_wave():
    grid = PeriodicGrid(2, (16, 1, 16, 1))
    f = ScalarField(grid, np.cos(2 * np.pi * grid.coordinate(0)) * np.ones(grid.shape))
    form = ddbar(f)
    # i d dbar f with f = cos(2 pi x1): coefficient on dz1^dzbar1 is
    # i * (-pi^2) cos(2 pi x1)
    expected = 1j * (-np.pi**2) * np.cos(2 * np.pi * grid.coordinate(0)) * np.ones(grid.shape)
    assert np.max(np.abs(form.coefficient((0,), (0,)) - expected)) < 1e-12
    assert form.is_real()


def test_dbar_squared_is_zero():
    grid = PeriodicGrid(2, (64, 1, 64, 1))
    rng = np.random.default_rng(5)
    a = random_form(grid, 1, 0, rng)
    da, dba = exterior_d(a)
    _, dbdba = exterior_d(dba)
    dda, _ = exterior_d(da)
    assert dbdba.max_norm() < 1e-12
    assert dda.max_norm() < 1e-12


def test_del_delbar_anticommute():
    grid = PeriodicGrid(2, (16, 16, 16, 1))
    rng = np.random.default_rng(6)
    a = random_form(grid, 1, 0, rng)
    da, dba = exterior_d(a)
    _, db_of_d = exterior_d(da)
    d_of_db, _ = exterior_d(dba)
    s = db_of_d + d_of_db
    assert s.max_norm() < 1e-10


def test_d_of_ddbar_is_zero():
    grid = PeriodicGrid(2, (16, 1, 16, 1))
    rng = np.random.default_rng(7)
    f = ScalarField(grid, random_bandlimited(grid, rng))
    form = ddbar(f)
    assert d_max_norm(form) < 1e-10


def test_leibniz_rule():
    grid = PeriodicGrid(2, (16, 16, 1, 1))
    rng = np.random.default_rng(8)
    a = random_form(grid, 1, 0, rng)
    b = random_form(grid, 0, 1, rng)
    dab_p, dab_q = exterior_d(wedge(a, b))
    da, dba = exterior_d(a)
    db, dbb = exterior_d(b)
    # del(a^b) = del a ^ b - a ^ del b for a of total degree 1
    rhs_p = wedge(da, b) - wedge(a, db)
    rhs_q = wedge(dba, b) - wedge(a, dbb)
    assert max_diff_generators(form_to_generators(dab_p), form_to_generators(rhs_p)) < 1e-9
    assert max_diff_generators(form_to_generators(dab_q), form_to_generators(rhs_q)) < 1e-9


def test_conjugation_involution_and_reality():
    grid = small_grid(2)
    rng = np.random.default_rng(9)
    a = random_form(grid, 1, 1, rng)
    back = a.conjugated().conjugated()
    assert max_diff_generators(form_to_generators(back), form_to_generators(a)) < 1e-14
    # i dz^i ^ dzbar^j with Hermitian coefficient matrix is a real form
    h = np.array([[2.0, 1 + 1j], [1 - 1j, 3.0]])
    real_form = FormField(
        grid, 1, 1, {((i,), (j,)): 1j * h[i, j] for i in range(2) for j in range(2)}
    )
    assert real_form.is_real()
    lop = FormField(grid, 1, 1, {((0,), (1,)): 1.0})
    assert not lop.is_real()


def test_top_degree_wedge_is_scalar_multiple_of_volume():
    grid = small_grid(2)
    a = FormField(grid, 1, 1, {((0,), (0,)): 1j})
    b = FormField(grid, 1, 1, {((1,), (1,)): 1j})
    top = wedge(a, b)
    assert set(top.coeffs) == {((0, 1), (0, 1))}
    # (i dz1^dzbar1)^(i dz2^dzbar2) = i^2 dz1^dzbar1^dz2^dzbar2
    #                              = -(-1) dz1 dz2 dzbar1 dzbar2 = dz^{12}^dzbar^{12}
    assert np.allclose(top.coefficient((0, 1), (0, 1)), 1.0)


@pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)])
def test_exterior_d_matches_finite_differences(p, q):
    # every x and y axis active, where d/dz and d/dzbar differ
    grid = PeriodicGrid(2, (16, 16, 16, 16))
    rng = np.random.default_rng(8)
    a = FormField(grid, p, q, {
        key: random_bandlimited(grid, rng, kmax=1, terms=2, complex_valued=True)
        for key in basis_keys(2, p, q)
    })
    for got, want in zip(exterior_d(a), fd_exterior_d(a)):
        scale = max(1.0, max((float(np.max(np.abs(v))) for v in want.values()), default=0.0))
        assert max_diff_generators(form_to_generators(got), want) / scale < 5e-3


def test_exterior_d_makes_two_fft_calls(monkeypatch):
    # one forward transform batched over the coefficients and one inverse
    # transform batched over the coefficients of del a and dbar a
    grid = PeriodicGrid(3, (8, 8, 1, 8, 1, 1))
    a = random_form(grid, 1, 1, np.random.default_rng(4))
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
    da, dba = exterior_d(a)
    assert sorted(calls) == ["fftn", "ifftn"]
    assert len(da.coeffs) == len(dba.coeffs) == 9


def test_zero_form_and_max_norm():
    grid = small_grid(2)
    z = zero_form(grid, 1, 1)
    assert z.max_norm() == 0.0
    assert exterior_d(z)[0].max_norm() == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 10_000))
def test_wedge_bilinearity_property(p, q, seed):
    grid = small_grid(2)
    rng = np.random.default_rng(seed)
    a = random_form(grid, p, q, rng)
    b = random_form(grid, p, q, rng)
    c = random_form(grid, min(1, 2 - p), min(1, 2 - q), rng)
    lhs = wedge(a + b, c)
    rhs = wedge(a, c) + wedge(b, c)
    assert max_diff_generators(form_to_generators(lhs), form_to_generators(rhs)) < 1e-11
