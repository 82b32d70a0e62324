import numpy as np
import pytest

from hermweb.grid import (
    GridError,
    PeriodicGrid,
    ScalarField,
    _hermitian_hessian_multipliers,
    _hessian_multipliers,
    _inverse_laplacian_symbol,
    _laplacian_solve_multipliers,
    _z_symbols,
    constant_field,
    from_function,
    hermitian_hessian_stack,
    hessian_values,
    irfft_active,
    laplacian_symbol,
    rfft_active,
)

from hermweb.smallmat import hermitian_from_stack, hermitian_stack

from helpers import (
    fd_partial_z,
    fd_partial_zbar,
    hermitian_hessian_multipliers_full_grid,
    hermitian_part,
    mean,
    random_bandlimited,
    spectral_partial,
)


def test_grid_basic_properties():
    grid = PeriodicGrid(2, (16, 1, 16, 1))
    assert grid.shape == (16, 1, 16, 1)
    assert grid.active_axes == (0, 2)
    assert grid.num_points == 256
    assert grid.axis_of("x", 1) == 0
    assert grid.axis_of("y", 1) == 2
    assert grid.axis_of("x", 2) == 1
    assert grid.axis_of("y", 2) == 3


@pytest.mark.parametrize(
    "n,sizes",
    [
        (1, (8, 8)),          # n out of range
        (4, (8,) * 8),        # n out of range
        (2, (8, 8, 8)),       # wrong axis count
        (2, (7, 1, 1, 1)),    # odd active size
        (2, (4, 1, 1, 1)),    # too small
        (2, (0, 1, 1, 1)),    # nonpositive
        (2, (8, 2, 1, 1)),    # 2 is neither collapsed nor >= 8
    ],
)
def test_grid_rejects_bad_sizes(n, sizes):
    with pytest.raises(GridError):
        PeriodicGrid(n, sizes)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_scalar_field_rejects_a_non_finite_value(bad):
    # a field enters through this constructor, so one bad point stops it
    # there, before a solver can run on it
    grid = PeriodicGrid(2, (8, 8, 1, 1))
    values = np.zeros(grid.shape)
    values[3, 5] = bad
    with pytest.raises(GridError, match=r"at index \(3, 5, 0, 0\) is not finite"):
        ScalarField(grid, values)
    imaginary = np.zeros(grid.shape, dtype=np.complex128)
    imaginary[3, 5] = complex(0.0, bad)
    with pytest.raises(GridError, match=r"at index \(3, 5, 0, 0\) is not finite"):
        ScalarField(grid, imaginary)
    with pytest.raises(GridError, match=r"at index \(3, 5, 0, 0\) is not finite"):
        from_function(grid, lambda x1, x2, **_: np.where((x1 == 3 / 8) & (x2 == 5 / 8), bad, 0.0))
    # finiteness is checked over the whole field before the imaginary parts
    imaginary[1, 2] = 0.5j
    with pytest.raises(GridError, match=r"at index \(3, 5, 0, 0\) is not finite"):
        ScalarField(grid, imaginary)


def test_scalar_field_is_real():
    # complex values enter only with every imaginary part exactly 0, signed
    # zeros included, and are kept as their real parts
    grid = PeriodicGrid(2, (8, 8, 1, 1))
    values = np.arange(64.0).reshape(grid.shape).astype(np.complex128)
    values.imag[::2] = -0.0
    assert np.signbit(values.imag).any()
    f = ScalarField(grid, values)
    assert f.values.dtype == np.float64
    assert np.array_equal(f.values, values.real)
    assert ScalarField(grid, np.ones(grid.shape, dtype=int)).values.dtype == np.float64
    assert constant_field(grid, 2).values.dtype == np.float64


def test_scalar_field_names_the_first_imaginary_part():
    grid = PeriodicGrid(2, (8, 8, 1, 1))
    values = np.ones(grid.shape, dtype=np.complex128)
    values[6, 1] += 1e-300j
    values[2, 7] -= 0.5j
    with pytest.raises(GridError, match=r"field value \(1-0\.5j\) at index \(2, 7, 0, 0\) has an imaginary part"):
        ScalarField(grid, values)
    with pytest.raises(GridError, match=r"at index \(0, 0, 0, 0\) has an imaginary part"):
        constant_field(grid, 1 + 1e-12j)
    # exp(2 pi i x1) is real at x1 = 0
    with pytest.raises(GridError, match=r"at index \(1, 0, 0, 0\) has an imaginary part"):
        from_function(grid, lambda x1, **_: np.exp(2j * np.pi * x1))


def test_coordinates_cover_unit_cell():
    grid = PeriodicGrid(2, (8, 1, 16, 1))
    x1 = grid.coordinate(0)
    assert x1.ravel()[0] == 0.0
    assert np.allclose(np.diff(x1.ravel()), 1.0 / 8)
    y1 = grid.coordinate(2)
    assert y1.size == 16 and y1.ravel()[-1] == pytest.approx(15.0 / 16)
    # collapsed axis: single sample at the origin
    assert grid.coordinate(1).ravel().tolist() == [0.0]


def test_coordinates_share_one_read_only_table_per_grid():
    # each call returns a fresh dict over the same cached arrays
    grid = PeriodicGrid(3, (8, 1, 16, 1, 1, 8))
    first, second = grid.coordinates(), grid.coordinates()
    assert first is not second
    assert list(first) == ["x1", "y1", "x2", "y2", "x3", "y3"]
    assert all(first[k] is second[k] for k in first)
    for a, (part, i) in enumerate([("x", 1), ("x", 2), ("x", 3), ("y", 1), ("y", 2), ("y", 3)]):
        assert np.array_equal(first[f"{part}{i}"], grid.coordinate(a))
    with pytest.raises(ValueError):
        first["x1"][0, 0, 0, 0, 0, 0] = 0.5
    del first["y2"]
    assert list(grid.coordinates()) == list(second)


def test_wavenumbers_fft_order():
    grid = PeriodicGrid(2, (8, 1, 1, 1))
    k = grid.wavenumbers(0).ravel()
    assert k.tolist() == [0, 1, 2, 3, -4, -3, -2, -1]
    assert grid.wavenumbers(1).ravel().tolist() == [0]


def test_scalar_field_is_read_only():
    grid = PeriodicGrid(2, (8, 1, 8, 1))
    f = constant_field(grid, 2.0)
    with pytest.raises(ValueError):
        f.values[0, 0, 0, 0] = 3.0
    assert mean(f) == 2.0


def test_partial_z_plane_wave_exact():
    # f = exp(2 pi i x1): d/dz1 = pi i f and d/dzbar1 = pi i f since
    # d/dx = d/dz + d/dzbar and f has no y dependence.
    grid = PeriodicGrid(2, (64, 1, 64, 1))
    f = np.broadcast_to(np.exp(2j * np.pi * grid.coordinates()["x1"]), grid.shape)
    dz, dzb = spectral_partial(f, grid, 1)
    assert np.max(np.abs(dz - 1j * np.pi * f)) < 1e-12
    assert np.max(np.abs(dzb - 1j * np.pi * f)) < 1e-12
    # no dependence on the second coordinate
    assert np.max(np.abs(spectral_partial(f, grid, 2)[0])) < 1e-12


def test_partial_z_mixed_wave():
    # f = exp(2 pi i (x1 + y1)): Fourier multipliers pi(ky + i kx) and
    # -pi(ky - i kx) at (kx, ky) = (1, 1).
    grid = PeriodicGrid(2, (32, 1, 32, 1))
    c = grid.coordinates()
    f = np.broadcast_to(np.exp(2j * np.pi * (c["x1"] + c["y1"])), grid.shape)
    dz, dzb = spectral_partial(f, grid, 1)
    # multiplier: pi (ky + i kx) = pi (1 + i)
    assert np.max(np.abs(dz - np.pi * (1 + 1j) * f)) < 1e-12
    assert np.max(np.abs(dzb - (-np.pi) * (1 - 1j) * f)) < 1e-12


@pytest.mark.parametrize("n,sizes", [(2, (64, 64, 1, 1)), (3, (32, 1, 1, 32, 1, 1))])
def test_partial_z_matches_finite_differences(n, sizes):
    grid = PeriodicGrid(n, sizes)
    rng = np.random.default_rng(7)
    vals = random_bandlimited(grid, rng, kmax=2)
    for i in range(1, n + 1):
        spec, specb = spectral_partial(vals, grid, i)
        fd = fd_partial_z(vals, grid, i)
        scale = max(1.0, np.max(np.abs(spec)))
        assert np.max(np.abs(spec - fd)) / scale < 5e-3
        fdb = fd_partial_zbar(vals, grid, i)
        assert np.max(np.abs(specb - fdb)) / scale < 5e-3


def test_conjugation_identity():
    # For real f: d f / dzbar_i = conj(d f / dz_i).
    grid = PeriodicGrid(2, (16, 16, 16, 1))
    rng = np.random.default_rng(3)
    vals = random_bandlimited(grid, rng)
    for i in (1, 2):
        dz, dzb = spectral_partial(vals, grid, i)
        assert np.max(np.abs(dzb - np.conj(dz))) < 1e-12


def test_hessian_matches_composition():
    grid = PeriodicGrid(2, (16, 16, 16, 16))
    rng = np.random.default_rng(11)
    vals = random_bandlimited(grid, rng, complex_valued=True)
    H = hessian_values(vals, grid)
    for i in range(2):
        for j in range(2):
            # d/dz_i of d f / dzbar_j
            direct = spectral_partial(spectral_partial(vals, grid, j + 1)[1], grid, i + 1)[0]
            assert np.max(np.abs(H[..., i, j] - direct)) < 1e-11


def test_hessian_hermitian_for_real_input():
    grid = PeriodicGrid(2, (16, 16, 16, 16))
    rng = np.random.default_rng(5)
    vals = random_bandlimited(grid, rng)
    H = hessian_values(vals, grid)
    scale = max(1.0, float(np.max(np.abs(H))))
    assert np.max(np.abs(H - np.conj(np.swapaxes(H, -1, -2)))) / scale < 1e-13


def test_collapsed_axis_derivatives_vanish():
    grid = PeriodicGrid(3, (16, 1, 1, 16, 1, 1))
    rng = np.random.default_rng(1)
    vals = random_bandlimited(grid, rng)
    assert np.max(np.abs(spectral_partial(vals, grid, 2)[0])) == 0.0
    assert np.max(np.abs(spectral_partial(vals, grid, 3)[1])) == 0.0


def test_mean_is_translation_invariant():
    grid = PeriodicGrid(2, (32, 1, 32, 1))
    rng = np.random.default_rng(9)
    vals = random_bandlimited(grid, rng)
    m = mean(ScalarField(grid, vals))
    rolled = np.roll(vals, 5, axis=0)
    assert mean(ScalarField(grid, rolled)) == pytest.approx(m, abs=1e-13)


# the five grids of test_hermitian_hessian_is_hermitian_part_of_hessian
HESSIAN_GRIDS = [
    (2, (64, 64, 1, 1)),
    (3, (16, 16, 16, 1, 1, 1)),
    (2, (16, 16, 8, 8)),
    (3, (8, 8, 8, 8, 1, 8)),
    (2, (16, 1, 1, 16)),
]


@pytest.mark.parametrize("n, sizes", HESSIAN_GRIDS)
@pytest.mark.parametrize("stack", [0, 3])
def test_real_transform_pair_is_numpys_rfftn_bit_for_bit(n, sizes, stack):
    # the same 1-D numpy calls in the same order, with and without a
    # leading stack axis; the inverse also on a half spectrum that is not
    # the transform of a real field
    grid = PeriodicGrid(n, sizes)
    rng = np.random.default_rng(sum(sizes) + stack)
    lead = (stack,) if stack else ()
    offset = len(lead)
    axes = [a + offset for a in grid.active_axes]
    s = [grid.sizes[a] for a in grid.active_axes]
    vals = rng.standard_normal(lead + grid.shape)
    spectrum = rfft_active(vals, grid, offset)
    assert np.array_equal(spectrum, np.fft.rfftn(vals, axes=axes))
    assert np.array_equal(irfft_active(spectrum, grid, offset), np.fft.irfftn(spectrum, s=s, axes=axes))
    noise = rng.standard_normal(spectrum.shape) + 1j * rng.standard_normal(spectrum.shape)
    assert np.array_equal(irfft_active(noise, grid, offset), np.fft.irfftn(noise, s=s, axes=axes))


def test_real_transform_pair_without_active_axes_is_the_identity():
    grid = PeriodicGrid(2, (1, 1, 1, 1))
    vals = np.full(grid.shape, 2.5)
    assert np.array_equal(rfft_active(vals, grid), vals.astype(np.complex128))
    assert np.array_equal(irfft_active(rfft_active(vals, grid), grid), vals)


@pytest.mark.parametrize("n", [2, 3])
def test_hermitian_stack_round_trip(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((8, 8, n, n)) + 1j * rng.standard_normal((8, 8, n, n))
    h = hermitian_part(a)
    S = hermitian_stack(a)
    assert S.shape == (n * n, 8, 8) and S.dtype == np.float64
    assert np.array_equal(hermitian_from_stack(S), h)
    assert np.array_equal(hermitian_stack(hermitian_from_stack(S)), S)


# white noise reaches the Nyquist bins, where the Hermitian-part symbol differs
# from the Hessian's; (16, 1, 1, 16) and (8, 8, 8, 8, 1, 8) have collapsed axes,
# and on (64, 64, 1, 1) and (16, 16, 16, 1, 1, 1) the last active axis is not
# the last array axis
@pytest.mark.parametrize("n, sizes", HESSIAN_GRIDS)
def test_hermitian_hessian_is_hermitian_part_of_hessian(n, sizes):
    grid = PeriodicGrid(n, sizes)
    vals = np.random.default_rng(sum(sizes)).standard_normal(grid.shape)
    expected = hermitian_part(hessian_values(vals, grid))
    S = hermitian_hessian_stack(vals, grid)
    assert S.dtype == np.float64 and S.shape == (n * n,) + grid.shape
    H = hermitian_from_stack(S)
    assert np.max(np.abs(H - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.array_equal(H, np.conj(np.swapaxes(H, -1, -2)))


# every grid of this module
ALL_GRIDS = sorted(
    set(HESSIAN_GRIDS)
    | {
        (2, sizes)
        for sizes in [
            (1, 1, 1, 1), (8, 1, 1, 1), (8, 1, 8, 1), (8, 1, 16, 1), (16, 1, 16, 1),
            (32, 1, 32, 1), (64, 1, 64, 1), (16, 16, 16, 1), (16, 16, 16, 16),
        ]
    }
    | {(3, (16, 1, 1, 16, 1, 1)), (3, (32, 1, 1, 32, 1, 1))}
)


@pytest.mark.parametrize("n, sizes", ALL_GRIDS)
def test_hermitian_hessian_table_is_built_on_the_half_spectrum(n, sizes):
    # equal to the table cut from the full spectrum, built without the full
    # complex Hessian symbols
    grid = PeriodicGrid(n, sizes)
    _hessian_multipliers.cache_clear()
    _hermitian_hessian_multipliers.cache_clear()
    table = _hermitian_hessian_multipliers(grid)
    assert _hessian_multipliers.cache_info().currsize == 0
    assert table.shape == (n * n,) + rfft_active(np.zeros(grid.shape), grid).shape
    assert np.array_equal(table, hermitian_hessian_multipliers_full_grid(grid))
    assert not table.flags.writeable


@pytest.mark.parametrize("n, sizes", HESSIAN_GRIDS)
def test_hessian_over_laplacian_keeps_the_rows_that_are_not_zero(n, sizes):
    # the rows dropped are zero for every field; the rows kept are those of
    # the Hessian stack of Lap^{-1} f, whose multipliers are Q[1:]
    grid = PeriodicGrid(n, sizes)
    vals = np.random.default_rng(sum(sizes) + 2).standard_normal(grid.shape)
    rows, Q = _laplacian_solve_multipliers(grid)
    P = Q[1:]
    S = hermitian_hessian_stack(vals, grid)
    dropped = np.setdiff1d(np.arange(n * n), rows)
    assert not S[dropped].any() and all(S[r].any() for r in rows)
    inv_lap = irfft_active(_inverse_laplacian_symbol(grid) * rfft_active(vals, grid), grid)
    expected = hermitian_hessian_stack(inv_lap, grid)[rows]
    out = irfft_active(P * rfft_active(vals, grid), grid, 1)
    assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("n, sizes", HESSIAN_GRIDS + [(2, (1, 1, 1, 1))])
def test_laplacian_symbol_is_the_half_spectrum_table(n, sizes):
    # -sum_i |s_i|^2 on the bins of rfft_active: 0..N/2 on the last active axis
    grid = PeriodicGrid(n, sizes)
    full = -sum(np.broadcast_to(np.abs(s) ** 2, grid.shape) for s in _z_symbols(grid))
    idx = [slice(None)] * len(sizes)
    if grid.active_axes:
        last = grid.active_axes[-1]
        idx[last] = slice(sizes[last] // 2 + 1)
    sym = laplacian_symbol(grid)
    assert sym.shape == rfft_active(np.zeros(grid.shape), grid).shape
    assert np.array_equal(sym, full[tuple(idx)])
    assert not sym.flags.writeable
    inv = _inverse_laplacian_symbol(grid)
    assert inv.flat[0] == 0.0 and np.array_equal(inv.flat[1:], 1.0 / sym.flat[1:])
    rows, Q = _laplacian_solve_multipliers(grid)
    assert np.array_equal(Q[0], inv) and len(Q) == 1 + len(rows)


def test_hermitian_hessian_on_a_one_point_grid_vanishes():
    grid = PeriodicGrid(2, (1, 1, 1, 1))
    assert np.array_equal(hermitian_hessian_stack(np.ones(grid.shape), grid), np.zeros((4,) + grid.shape))
