import dataclasses

import numpy as np
import pytest

from hermweb import grid as grid_module
from hermweb import metric as metric_module
from hermweb.forms import FormField, d_max_norm, ddbar, exterior_d, wedge, wedge_power
from hermweb.grid import GridError, PeriodicGrid, ScalarField, _z_symbols, hessian_values
from hermweb.flow import flow_state
from hermweb.ma import MASolution, hodge_root
from hermweb.smallmat import hermitian_from_stack
from hermweb.specfile import loads as hermweb_loads
from hermweb.metric import (
    CLASSES,
    ClassReport,
    HermitianMetricField,
    MetricError,
    bott_chern_defect,
    chern_ricci,
    classify,
    conformal_flatten,
    hermitian_defect,
    identity_metric,
    log_det,
    parallel_section_check,
    ricci_norm,
    ricci_potential,
    ricci_tensor,
)

from helpers import (
    assert_carries_its_stack,
    bump_metric,
    chern_connection,
    classify_forms,
    count_hermitian_from_stack,
    fd_partial_z,
    hermitian_part,
    mean,
    metric_from_form,
    random_bandlimited,
    random_metric,
    refuse_hermitian_stack,
    sg_defect_pinv,
    spectral_partial,
)


GRID2 = PeriodicGrid(2, (32, 32, 1, 1))


def test_metric_validation():
    grid = PeriodicGrid(2, (8, 1, 8, 1))
    bad = np.zeros(grid.shape + (2, 2), dtype=np.complex128)
    bad[..., 0, 0] = 1.0
    bad[..., 1, 1] = 1.0
    bad[..., 0, 1] = 1.0  # not Hermitian (lower left stays 0)
    with pytest.raises(MetricError):
        HermitianMetricField(grid, bad)
    neg = np.zeros(grid.shape + (2, 2), dtype=np.complex128)
    neg[..., 0, 0] = -1.0
    neg[..., 1, 1] = 1.0
    with pytest.raises(MetricError):
        HermitianMetricField(grid, neg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_metric_rejects_non_finite_entries_by_name(bad):
    grid = PeriodicGrid(2, (8, 1, 8, 1))
    g = np.zeros(grid.shape + (2, 2), dtype=np.complex128)
    g[..., 0, 0] = g[..., 1, 1] = 1.0
    g[3, 0, 5, 0, 0, 1] = bad  # also breaks the symmetry, which is checked later
    with pytest.raises(MetricError, match=r"g\[1\]\[2\] is not finite"):
        HermitianMetricField(grid, g)


def test_metric_names_the_first_non_finite_entry_in_dimension_3():
    grid = PeriodicGrid(3, (8, 8, 1, 1, 1, 1))
    g = np.broadcast_to(np.eye(3, dtype=np.complex128), grid.shape + (3, 3)).copy()
    g[1, 2, 0, 0, 0, 0, 2, 1] = np.inf
    g[0, 0, 0, 0, 0, 0, 2, 2] = np.nan
    with pytest.raises(MetricError, match=r"g\[3\]\[2\] is not finite"):
        HermitianMetricField(grid, g)


def test_unchecked_path_is_internal(monkeypatch):
    """Fields from outside keep every check: the spec loader, the report
    reader and the public constructor never take the unchecked path, while
    identity_metric and conformal_flatten build from stacks through it.  The
    spec's stacks pass the positivity check of from_stack: loads evaluates
    none, and build_metric and build_reference check each stack they build,
    on whatever grid."""
    import inspect

    import hermweb.report
    import hermweb.specfile

    for module in (hermweb.specfile, hermweb.report):
        assert "_unchecked" not in inspect.getsource(module)

    g = bump_metric(GRID2)
    reached = []
    unchecked = HermitianMetricField._unchecked
    monkeypatch.setattr(
        HermitianMetricField, "_unchecked", lambda grid, S: reached.append(grid) or unchecked(grid, S)
    )
    identity_metric(GRID2)
    conformal_flatten(g)
    assert reached == [GRID2, GRID2]

    def refuse(*args, **kwargs):
        raise AssertionError("unchecked path reached")

    monkeypatch.setattr(HermitianMetricField, "_unchecked", classmethod(refuse))
    metric_from_form(g.fundamental_form())
    checked = []
    is_positive_definite = metric_module.is_positive_definite
    monkeypatch.setattr(
        metric_module, "is_positive_definite", lambda S: checked.append(S.shape) or is_positive_definite(S)
    )
    spec = hermweb.specfile.loads(
        "[manifold]\nname = t\nn = 2\nsizes = 8 8 1 1\n"
        "[metric]\ng[1][1] = 1 + 0.5*cos(2*pi*x2)\ng[2][2] = 1\n"
        "[reference]\ng[1][1] = 1\ng[2][2] = 1\n"
    )
    assert checked == []
    data = spec.data_grid(spec.build_grid())
    spec.build_metric(data)
    spec.build_reference(data)
    assert checked == [(4, 1, 8, 1, 1)] * 2
    spec.build_metric()
    spec.build_reference()
    assert checked == [(4, 1, 8, 1, 1)] * 2 + [(4, 8, 8, 1, 1)] * 2
    with pytest.raises(MetricError, match="positive definite"):
        HermitianMetricField(GRID2, -g.g)


@pytest.mark.parametrize("n, sizes", [(2, (32, 32, 1, 1)), (3, (8, 8, 1, 8, 1, 1))])
def test_the_constructor_keeps_the_stack_of_the_hermitian_part(n, sizes):
    # the stack of (g + g^H)/2, built once; not a constructor argument and
    # not assignable
    g = random_metric(PeriodicGrid(n, sizes), np.random.default_rng(n), amp=0.1)
    raw = np.array(g.g)
    raw[..., 0, 1] += 1e-12  # within HERMITIAN_TOL of Hermitian
    h = HermitianMetricField(g.grid, raw)
    assert_carries_its_stack(h)
    assert not np.array_equal(h.stack, g.stack)
    assert raw.flags.writeable
    with pytest.raises(TypeError):
        HermitianMetricField(g.grid, raw, h.stack)
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.stack = g.stack


@pytest.mark.parametrize("build", ["constructor", "from_stack", "derived"])
def test_g_is_assembled_on_first_read_and_kept_read_only(build, monkeypatch):
    # a metric holds its stack; the complex field is built on the first read
    # of g, from the stack, and the same read-only array is read after it
    g0 = random_metric(GRID2, np.random.default_rng(3), amp=0.1)
    raw, S = np.array(g0.g), np.array(g0.stack)
    calls = count_hermitian_from_stack(monkeypatch)
    metric = {
        "constructor": lambda: HermitianMetricField(GRID2, raw),
        "from_stack": lambda: HermitianMetricField.from_stack(GRID2, S),
        "derived": lambda: conformal_flatten(g0),
    }[build]()
    assert calls == []
    g = metric.g
    assert calls == [metric.stack.shape]
    assert metric.g is g and calls == [metric.stack.shape]
    assert not g.flags.writeable
    assert np.array_equal(g, hermitian_from_stack(metric.stack))
    with pytest.raises(dataclasses.FrozenInstanceError):
        metric.g = g.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        metric.stack = metric.stack.copy()
    assert metric.g is g


def test_array_dataclasses_compare_by_identity():
    # a generated __eq__ or __hash__ would meet arrays, whose truth value is
    # ambiguous: two metrics, fields, forms, solutions, flow states and
    # potentials built alike compare and hash as distinct objects
    def build():
        g = identity_metric(GRID2)
        phi = ScalarField(GRID2, np.zeros(GRID2.shape))
        state = flow_state(g)
        return [g, phi, g.fundamental_form(), MASolution(phi, 0.0, [0.0], g), state, state.potential]

    for a, b in zip(build(), build()):
        assert a == a and a != b and len({a, b}) == 2, type(a).__name__


def test_from_stack_checks_the_stack():
    g = random_metric(GRID2, np.random.default_rng(4), amp=0.1)
    S = np.array(g.stack)
    metric = HermitianMetricField.from_stack(GRID2, S)
    assert metric.stack is S and not S.flags.writeable
    with pytest.raises(MetricError, match="need float64 and"):
        HermitianMetricField.from_stack(GRID2, np.array(g.stack[:3]))
    with pytest.raises(MetricError, match="need float64 and"):
        HermitianMetricField.from_stack(PeriodicGrid(3, (32, 32, 1, 1, 1, 1)), np.array(g.stack))
    with pytest.raises(MetricError, match="need float64 and"):
        HermitianMetricField.from_stack(GRID2, g.stack.astype(np.complex128))
    bad = np.array(g.stack)
    bad[2, 5, 7] = np.inf
    with pytest.raises(MetricError, match="not finite"):
        HermitianMetricField.from_stack(GRID2, bad)
    with pytest.raises(MetricError, match="positive definite"):
        HermitianMetricField.from_stack(GRID2, -np.array(g.stack))


def test_classify_det_and_inverse_read_the_stack(monkeypatch):
    g = random_metric(PeriodicGrid(3, (8, 8, 1, 8, 1, 1)), np.random.default_rng(5), amp=0.1)
    want = (classify(g, 1e-8), g.det(), g.inverse())
    refuse_hermitian_stack(monkeypatch)
    got = (classify(g, 1e-8), g.det(), g.inverse())
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def test_identity_metric_is_flat_and_kahler():
    g = identity_metric(GRID2)
    assert ricci_norm(g) < 1e-14
    assert np.max(np.abs(log_det(g))) < 1e-14
    rep = classify(g, 1e-10)
    assert all(rep.flag(name) for name in CLASSES)
    assert rep.residuals["astheno_kahler"] is None  # vacuous for n = 2


def test_fundamental_form_round_trip():
    rng = np.random.default_rng(0)
    g = random_metric(GRID2, rng)
    back = metric_from_form(g.fundamental_form())
    assert np.max(np.abs(back.g - g.g)) < 1e-13


def test_metric_from_form_rejects_wrong_degree():
    grid = GRID2
    with pytest.raises((MetricError, ValueError)):
        metric_from_form(FormField(grid, 1, 0, {((0,), ()): 1.0}))


def test_ricci_tensor_vs_form():
    rng = np.random.default_rng(1)
    g = random_metric(GRID2, rng, amp=0.05, kmax=1)
    R = ricci_tensor(g)
    ric = chern_ricci(g)
    for i in range(2):
        for j in range(2):
            assert np.max(np.abs(1j * R[..., i, j] - ric.coefficient((i,), (j,)))) < 1e-12
    assert ric.is_real()


@pytest.mark.parametrize("n, lead", [(2, ()), (2, (5,)), (3, (4, 3)), (3, (2, 1, 3))])
def test_hermitian_defect_equals_the_full_formula(n, lead):
    # it reads the upper entries and the diagonal; the full field of
    # g - g^H is the oracle, on fields where either part dominates
    rng = np.random.default_rng(10 * n + len(lead))
    shape = lead + (n, n)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    herm = 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))
    diag_off = herm.copy()
    diag_off[..., n - 1, n - 1] += 1e-3j * rng.standard_normal(lead)
    upper_off = herm.copy()
    upper_off[..., 0, n - 1] += 1e-3 * rng.standard_normal(lead)
    for field in (g, herm, diag_off, upper_off):
        full = float(np.max(np.abs(field - np.conj(np.swapaxes(field, -1, -2)))))
        assert hermitian_defect(field) == full
    assert hermitian_defect(diag_off) > 0.0 and hermitian_defect(upper_off) > 0.0


def test_ricci_is_ddbar_exact_on_torus():
    # Ric = -i del dbar log det g, so its Bott-Chern defect matrix vanishes.
    rng = np.random.default_rng(2)
    g = random_metric(GRID2, rng)
    defect = bott_chern_defect(chern_ricci(g))
    assert np.max(np.abs(defect)) < 1e-12


NYQUIST_GRID = PeriodicGrid(3, (8, 8, 8, 8, 1, 8))


def test_ricci_tensor_is_the_hermitian_part_at_nyquist_modes():
    # with kmax = 2 on 8-point axes log det g has Nyquist content, where the
    # complex Hessian is not Hermitian; ricci_tensor is its Hermitian part,
    # the convention of the flow and the solvers
    g = random_metric(NYQUIST_GRID, np.random.default_rng(8), amp=0.1, kmax=2)
    R = ricci_tensor(g)
    complex_R = -hessian_values(log_det(g), NYQUIST_GRID)
    scale = np.max(np.abs(R))
    assert np.max(np.abs(R - hermitian_part(complex_R))) < 1e-13 * scale
    assert np.max(np.abs(R - complex_R)) > 1e-3 * scale


def test_chern_ricci_is_closed_at_nyquist_modes():
    # the form layer's own del dbar of -log det g, which exterior_d sees closed
    g = random_metric(NYQUIST_GRID, np.random.default_rng(8), amp=0.1, kmax=2)
    assert np.max(np.abs(bott_chern_defect(chern_ricci(g)))) < 1e-12


def test_bott_chern_defect_sees_harmonic_part():
    # constant-coefficient i c dz^i ^ dzbar^j is closed but not ddbar-exact
    c = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, -0.3]])
    form = FormField(
        GRID2, 1, 1, {((i,), (j,)): 1j * c[i, j] for i in range(2) for j in range(2)}
    )
    defect = bott_chern_defect(form)
    assert np.max(np.abs(defect - c)) < 1e-13


def test_bott_chern_defect_rejects_non_closed():
    rng = np.random.default_rng(3)
    coeffs = {
        ((i,), (j,)): random_bandlimited(GRID2, rng, complex_valued=True)
        for i in range(2)
        for j in range(2)
    }
    form = FormField(GRID2, 1, 1, coeffs)
    with pytest.raises(MetricError):
        bott_chern_defect(form)


def test_conformal_ricci_law():
    # Ric(e^u g) = Ric(g) - n i del dbar u
    rng = np.random.default_rng(4)
    g = random_metric(GRID2, rng)
    u = random_bandlimited(GRID2, rng, amp=0.3).real
    gu = HermitianMetricField(GRID2, np.exp(u)[..., None, None] * g.g)
    lhs = chern_ricci(gu)
    correction = ddbar(ScalarField(GRID2, u)).scaled(float(GRID2.n))
    rhs = chern_ricci(g) - correction
    assert (lhs - rhs).max_norm() < 1e-9


def test_conformal_flatten_bump():
    g = bump_metric(GRID2)
    flat = conformal_flatten(g)
    assert ricci_norm(flat) < 1e-10
    d = flat.det().real
    assert np.ptp(d) / np.mean(d) < 1e-12


def two_axis_spec_metric():
    spec = hermweb_loads(
        "[manifold]\nname = t\nn = 2\nsizes = 16 16 1 1\n[metric]\n"
        "g[1][1] = 1 + 0.4*cos(2*pi*x2)\ng[1][2] = 0.1*cos(2*pi*x1) | 0.05*sin(2*pi*x2)\n"
        "g[2][2] = 1 + 0.4*cos(2*pi*x1)\n"
    )
    return spec.build_metric()


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_metric(PeriodicGrid(2, (64, 64, 1, 1)), np.random.default_rng(1)),
        lambda: random_metric(PeriodicGrid(3, (16, 16, 16, 1, 1, 1)), np.random.default_rng(2)),
        two_axis_spec_metric,
    ],
    ids=["64x64", "16x16x16", "two-axis-spec"],
)
def test_stack_built_metrics_equal_the_constructors(build):
    # identity_metric and conformal_flatten build from stacks what the public
    # constructor builds from the same exactly Hermitian complex fields (each
    # g_ji is conj g_ij); hermitian_from_stack writes -0.0 for the imaginary
    # part of a zero lower entry, where the constructor keeps +0.0, so g is
    # compared by value and the stack bit for bit
    g = build()
    n = g.n
    eye = np.zeros(g.grid.shape + (n, n), dtype=np.complex128)
    eye[..., range(n), range(n)] = 1.0
    F = ricci_potential(g).values
    pairs = [
        (identity_metric(g.grid), HermitianMetricField(g.grid, eye)),
        (conformal_flatten(g), HermitianMetricField(g.grid, np.exp(F / n)[..., None, None] * g.g)),
    ]
    for built, checked in pairs:
        assert built.stack.tobytes() == checked.stack.tobytes()
        assert built.g.dtype == checked.g.dtype and np.array_equal(built.g, checked.g)
        assert_carries_its_stack(built)


def test_conformal_flatten_rejects_a_rescaling_that_is_not_positive(monkeypatch):
    g = bump_metric(GRID2)
    monkeypatch.setattr(metric_module, "is_positive_definite", lambda S: False)
    with pytest.raises(MetricError, match="conformal rescaling is not positive definite"):
        conformal_flatten(g)


def test_conformal_flatten_fixes_flat_metric():
    g = identity_metric(GRID2)
    flat = conformal_flatten(g)
    assert np.max(np.abs(flat.g - g.g)) < 1e-13


def test_conformal_rescaling_never_sees_an_imaginary_part():
    # the Ricci potential is real, and a complex potential with a nonzero
    # imaginary part is stopped where it is built, before the rescaling
    # could drop that part
    g = random_metric(GRID2, np.random.default_rng(6))
    F = ricci_potential(g)
    assert F.values.dtype == np.float64
    x1 = GRID2.coordinate(0)
    with pytest.raises(GridError, match=r"at index \(1, 0, 0, 0\) has an imaginary part"):
        ScalarField(GRID2, F.values + 0.5j * np.sin(2 * np.pi * x1))
    rescaled = metric_module._conformal_rescaling(g, ScalarField(GRID2, F.values + 0j))
    assert rescaled.stack.tobytes() == conformal_flatten(g).stack.tobytes()


def test_ricci_potential_properties():
    rng = np.random.default_rng(5)
    g = random_metric(GRID2, rng)
    F = ricci_potential(g)
    assert abs(mean(F)) < 1e-13
    # F = -(log det g - mean log det g)
    ld = log_det(g).real
    expected = -(ld - ld.mean())
    assert np.max(np.abs(F.values - expected)) < 1e-12
    # i del dbar F = Ric
    assert (ddbar(F) - chern_ricci(g)).max_norm() < 1e-10


def test_chern_connection_trace_is_dlogdet():
    rng = np.random.default_rng(6)
    g = random_metric(GRID2, rng, amp=0.05, kmax=1)
    gamma = chern_connection(g)
    trace = np.einsum("...jij->...i", gamma)
    ld = log_det(g)
    for i in range(2):
        expected = spectral_partial(ld, GRID2, i + 1)[0]
        assert np.max(np.abs(trace[..., i] - expected)) < 1e-10


def test_chern_connection_matches_finite_differences():
    # every x and y axis active, where d/dz and d/dzbar differ
    grid = PeriodicGrid(2, (16, 16, 16, 16))
    g = random_metric(grid, np.random.default_rng(9), amp=0.1, kmax=1).g
    dg = np.empty(grid.shape + (2, 2, 2), dtype=np.complex128)  # d g_{j lbar} / dz_i
    for i, j, l in np.ndindex(2, 2, 2):
        dg[..., i, j, l] = fd_partial_z(g[..., j, l], grid, i + 1)
    want = np.einsum("...kl,...ijl->...kij", np.linalg.inv(np.swapaxes(g, -1, -2)), dg)
    assert np.max(np.abs(chern_connection(HermitianMetricField(grid, g)) - want)) < 5e-3


def test_chern_connection_vanishes_for_flat():
    g = identity_metric(GRID2)
    assert np.max(np.abs(chern_connection(g))) < 1e-14


def test_parallel_section_check_takes_the_connection_trace_from_log_det(monkeypatch):
    # |grad eta| from the trace of the oracle's connection, on x1 and y2, so
    # that d/dz_1 log det g is real and d/dz_2 log det g imaginary.  The two
    # traces differ at Nyquist modes alone, which a resolved metric leaves at
    # round-off.  The check makes no complex transform
    grid = PeriodicGrid(2, (64, 1, 1, 64))
    g = random_metric(grid, np.random.default_rng(8), amp=0.05)
    a = np.einsum("...jij->...i", chern_connection(g))
    up = np.swapaxes(g.inverse(), -1, -2)
    grad2 = 4.0 * np.einsum("...ij,...i,...j->...", up, a, np.conj(a)).real * g.det() ** -2.0

    def refuse(*args, **kwargs):
        raise AssertionError("complex transform")

    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    rep = parallel_section_check(g, 2)
    assert rep.grad_eta_norm == pytest.approx(float(np.max(np.sqrt(grad2))), rel=1e-12)
    assert rep.identity_residual < 1e-8


@pytest.mark.parametrize("ell", [1, 2])
def test_weitzenboeck_identity(ell):
    grid = PeriodicGrid(2, (64, 64, 1, 1))
    rng = np.random.default_rng(7)
    g = random_metric(grid, rng, amp=0.05)
    rep = parallel_section_check(g, ell)
    assert rep.ell == ell
    assert rep.identity_residual < 1e-8


def test_parallel_section_on_flattened_metric():
    g = conformal_flatten(bump_metric(PeriodicGrid(2, (64, 64, 1, 1))))
    rep = parallel_section_check(g, 1)
    assert rep.identity_residual < 1e-8
    assert rep.grad_eta_norm < 1e-8


def test_parallel_section_rejects_ell_zero():
    with pytest.raises(MetricError):
        parallel_section_check(identity_metric(GRID2), 0)


def _items(d):
    return [(k, _items(v) if isinstance(v, dict) else v) for k, v in d.items()]


@pytest.mark.parametrize(
    "residuals, layout",
    [
        (
            (0.5, 0.5, 2.0, 1e-9, None),
            [
                ("tolerance", 1e-8),
                ("kahler", [("residual", 0.5), ("flag", False)]),
                ("balanced", [("residual", 0.5), ("flag", False)]),
                ("gauduchon", [("residual", 2.0), ("flag", False)]),
                ("strongly_gauduchon", [("residual", 1e-9), ("flag", True)]),
                ("astheno_kahler", [("residual", None), ("flag", True), ("vacuous", True)]),
            ],
        ),
        (
            (0.5, 1e-8, 2.0, 0.25, 3.0),
            [
                ("tolerance", 1e-8),
                ("kahler", [("residual", 0.5), ("flag", False)]),
                ("balanced", [("residual", 1e-8), ("flag", True)]),
                ("gauduchon", [("residual", 2.0), ("flag", False)]),
                ("strongly_gauduchon", [("residual", 0.25), ("flag", False)]),
                ("astheno_kahler", [("residual", 3.0), ("flag", False)]),
            ],
        ),
    ],
    ids=["n2", "n3"],
)
def test_class_report_layout(residuals, layout):
    # the order and keys of classify's report, which the benchmark's
    # inspect oracle parses: a residual at the tolerance sets its flag
    assert _items(ClassReport(1e-8, dict(zip(CLASSES, residuals))).as_dict()) == layout


def test_classify_bump_is_non_kahler():
    rep = classify(bump_metric(GRID2), 1e-8)
    assert not rep.flag("kahler")
    assert not rep.flag("balanced")  # balanced = Kahler for n = 2
    assert rep.residuals["kahler"] > 1e-2
    d = rep.as_dict()
    assert d["kahler"]["flag"] is False
    assert d["astheno_kahler"]["vacuous"] is True


@pytest.mark.parametrize("n,sizes", [(2, (16, 16, 8, 8)), (3, (8, 8, 8, 8, 1, 8))])
def test_sg_defect_matches_the_pinv_oracle(n, sizes):
    # classify's strongly Gauduchon residual against a pseudo-inverse at
    # every wavenumber, on non-Kahler metrics varying along x and y axes
    grid = PeriodicGrid(n, sizes)
    g = random_metric(grid, np.random.default_rng(21), amp=0.1)
    want = sg_defect_pinv(wedge_power(g.fundamental_form(), n - 1))
    assert want > 1e-2
    assert classify(g, 1e-8).residuals["strongly_gauduchon"] == pytest.approx(want, rel=1e-12)


# the grids of the metric-class oracle tests: x axes only, three x and two y
# axes, one complex direction collapsed, and x and y axes for n = 2
CLASS_GRIDS = [(3, (16, 16, 16, 1, 1, 1)), (3, (8, 8, 8, 8, 1, 8)), (2, (64, 64, 1, 1)), (2, (16, 16, 8, 8))]


def class_test_metric(kind, grid):
    """A metric of the kind named: random (kmax = 1, so that adj g, whose
    entries are products, has no Nyquist modes even on 8-point axes), Kahler
    I + Hess f, balanced and not Kahler (a Michelsohn root, n = 3), or flat."""
    rng = np.random.default_rng(sum(grid.sizes))
    if kind == "random":
        return random_metric(grid, rng, amp=0.1, kmax=1)
    if kind == "identity":
        return identity_metric(grid)
    chi = random_bandlimited(grid, rng, amp=0.01 if kind == "kahler" else 0.004, kmax=1).real
    if kind == "kahler":
        hess = hermitian_part(hessian_values(chi, grid))
        return HermitianMetricField(grid, identity_metric(grid).g + hess)
    omega0 = identity_metric(grid).fundamental_form()
    target = wedge_power(omega0, 2).scaled(0.5) + wedge(ddbar(ScalarField(grid, chi)), omega0)
    return hodge_root(target)


@pytest.mark.parametrize(
    "n,sizes,kind",
    [(n, sizes, kind) for n, sizes in CLASS_GRIDS for kind in ("random", "kahler", "balanced", "identity")
     if kind != "balanced" or n == 3],
)
def test_classify_matches_the_form_oracle(n, sizes, kind):
    # the five residuals from the real stacks of g and adj g against
    # exterior_d of omega and omega^{n-1}; residuals at the rounding level
    # of a second spectral derivative are compared with that floor
    grid = PeriodicGrid(n, sizes)
    g = class_test_metric(kind, grid)
    got, want = classify(g, 1e-8).residuals, classify_forms(g).residuals
    if kind == "identity":
        assert got == dict(zip(CLASSES, [0.0] * 4 + ([0.0] if n == 3 else [None])))
        return
    names = CLASSES
    if n == 2:
        assert got["astheno_kahler"] is want["astheno_kahler"] is None and got["balanced"] == got["kahler"]
        names = CLASSES[:4]
    floor = 1e-13 * max(np.max(np.abs(s)) for s in _z_symbols(grid)) ** 2 * np.max(np.abs(g.g))
    for name in names:
        assert got[name] == pytest.approx(want[name], rel=1e-12, abs=floor), name
    if kind == "random":
        assert min(want[name] for name in names) > 1e-3
    elif kind == "kahler":
        assert max(want[name] for name in names) < floor
    else:
        assert want["kahler"] > 1e-3 and want["balanced"] < floor


def test_classify_reads_the_del_parts_at_nyquist_modes():
    # with kmax = 2 on 8-point axes the entries of adj g reach the Nyquist
    # wavenumber, where the dbar part of d omega^2 is not the conjugate of
    # its del part; classify's Kahler and balanced residuals are the
    # max-norms of the del parts, the others match the form oracle
    grid = PeriodicGrid(3, (8, 8, 8, 8, 1, 8))
    g = random_metric(grid, np.random.default_rng(8), amp=0.1, kmax=2)
    omega = g.fundamental_form()
    del_omega, _ = exterior_d(omega)
    del_pow, dbar_pow = exterior_d(wedge_power(omega, 2))
    got, want = classify(g, 1e-8).residuals, classify_forms(g).residuals
    assert got["kahler"] == pytest.approx(del_omega.max_norm(), rel=1e-12)
    assert got["balanced"] == pytest.approx(del_pow.max_norm(), rel=1e-12)
    assert abs(dbar_pow.max_norm() - del_pow.max_norm()) > 1e-6 * del_pow.max_norm()
    for name in CLASSES[2:]:
        assert got[name] == pytest.approx(want[name], rel=1e-12), name


@pytest.mark.parametrize("n,sizes", [(2, (32, 32, 1, 1)), (3, (16, 16, 16, 1, 1, 1))])
def test_classify_makes_one_real_transform_and_one_inverse_per_class(n, sizes, monkeypatch):
    # one rfft_active over the stacks of g and adj g, one irfft_active over
    # the residual fields of each class test (Kahler, [balanced,] Gauduchon,
    # strongly Gauduchon[, astheno-Kahler]), no complex FFT and no form
    g = random_metric(PeriodicGrid(n, sizes), np.random.default_rng(8), amp=0.1)
    want = classify_forms(g).residuals
    calls = []
    for name in ("fftn", "ifftn"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
    for name in ("rfft_active", "irfft_active"):
        fn = getattr(grid_module, name)
        monkeypatch.setattr(metric_module, name, lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
    monkeypatch.setattr(FormField, "__post_init__", lambda self: calls.append("FormField"))
    rep = classify(g, 1e-8)
    assert calls == ["rfft_active"] + ["irfft_active"] * (5 if n == 3 else 3)
    names = CLASSES if n == 3 else CLASSES[:4]
    assert min(want[name] for name in names) > 1e-3
    for name in names:
        assert rep.residuals[name] == pytest.approx(want[name], rel=1e-12), name


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
def test_classify_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # a NaN tolerance would set every flag that is not vacuous to false
    with pytest.raises(MetricError, match="finite and positive"):
        classify(identity_metric(GRID2), tol)


def test_classify_gauduchon_conformal_metric_n2():
    # for n = 2 every conformal factor e^u with harmonic-like correction is
    # not automatically Gauduchon; but the flat metric scaled by a constant is.
    g = HermitianMetricField(GRID2, 2.5 * identity_metric(GRID2).g)
    rep = classify(g, 1e-10)
    assert rep.flag("gauduchon") and rep.flag("kahler")


def test_classify_n3_astheno_not_vacuous():
    grid = PeriodicGrid(3, (16, 16, 1, 1, 1, 1))
    rep = classify(identity_metric(grid), 1e-10)
    assert rep.flag("astheno_kahler")
    assert rep.residuals["astheno_kahler"] is not None and rep.residuals["astheno_kahler"] < 1e-12
