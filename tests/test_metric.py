import numpy as np
import pytest

from hermweb.forms import FormField, ddbar
from hermweb.grid import PeriodicGrid, ScalarField, mean, partial_z_values
from hermweb.metric import (
    HermitianMetricField,
    MetricError,
    bott_chern_defect,
    chern_connection,
    chern_ricci,
    classify,
    conformal_flatten,
    identity_metric,
    log_det,
    metric_from_form,
    parallel_section_check,
    ricci_norm,
    ricci_potential,
    ricci_tensor,
)

from helpers import bump_metric, random_bandlimited, random_metric


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


def test_unchecked_path_is_internal(monkeypatch):
    """Fields from outside keep every check: the spec loader, the report
    reader and the public constructors never take the unchecked path."""
    import inspect

    import hermweb.report
    import hermweb.specfile

    for module in (hermweb.specfile, hermweb.report):
        assert "_unchecked" not in inspect.getsource(module)

    def refuse(*args, **kwargs):
        raise AssertionError("unchecked path reached")

    monkeypatch.setattr(HermitianMetricField, "_unchecked", classmethod(refuse))
    g = bump_metric(GRID2)
    identity_metric(GRID2)
    metric_from_form(g.fundamental_form())
    conformal_flatten(g)
    spec = hermweb.specfile.loads(
        "[manifold]\nname = t\nn = 2\nsizes = 8 8 1 1\n"
        "[metric]\ng[1][1] = 1 + 0.5*cos(2*pi*x2)\ng[2][2] = 1\n"
        "[reference]\ng[1][1] = 1\ng[2][2] = 1\n"
    )
    spec.build_metric()
    spec.build_reference()
    with pytest.raises(MetricError, match="positive definite"):
        HermitianMetricField(GRID2, -g.g)


def test_identity_metric_is_flat_and_kahler():
    g = identity_metric(GRID2)
    assert ricci_norm(g) < 1e-14
    assert np.max(np.abs(log_det(g))) < 1e-14
    rep = classify(g, 1e-10)
    assert rep.kahler and rep.balanced and rep.gauduchon and rep.strongly_gauduchon
    assert rep.astheno_kahler and rep.astheno_vacuous  # vacuous for n = 2


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


def test_ricci_is_ddbar_exact_on_torus():
    # Ric = -i del dbar log det g, so its Bott-Chern defect matrix vanishes.
    rng = np.random.default_rng(2)
    g = random_metric(GRID2, rng)
    defect = bott_chern_defect(chern_ricci(g))
    assert np.max(np.abs(defect)) < 1e-12


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


def test_conformal_flatten_fixes_flat_metric():
    g = identity_metric(GRID2)
    flat = conformal_flatten(g)
    assert np.max(np.abs(flat.g - g.g)) < 1e-13


def test_ricci_potential_properties():
    rng = np.random.default_rng(5)
    g = random_metric(GRID2, rng)
    F = ricci_potential(g)
    assert abs(mean(F)) < 1e-13
    # F = -(log det g - mean log det g)
    ld = log_det(g).real
    expected = -(ld - ld.mean())
    assert np.max(np.abs(F.values.real - expected)) < 1e-12
    # i del dbar F = Ric
    assert (ddbar(F) - chern_ricci(g)).max_norm() < 1e-10


def test_chern_connection_trace_is_dlogdet():
    rng = np.random.default_rng(6)
    g = random_metric(GRID2, rng, amp=0.05, kmax=1)
    gamma = chern_connection(g).gamma
    trace = np.einsum("...jij->...i", gamma)
    ld = log_det(g)
    for i in range(2):
        expected = partial_z_values(ld.astype(np.complex128), GRID2, i + 1)
        assert np.max(np.abs(trace[..., i] - expected)) < 1e-10


def test_chern_connection_vanishes_for_flat():
    g = identity_metric(GRID2)
    assert np.max(np.abs(chern_connection(g).gamma)) < 1e-14


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


def test_classify_bump_is_non_kahler():
    rep = classify(bump_metric(GRID2), 1e-8)
    assert not rep.kahler
    assert not rep.balanced  # balanced = Kahler for n = 2
    assert rep.kahler_residual > 1e-2
    d = rep.as_dict()
    assert d["kahler"]["flag"] is False
    assert d["astheno_kahler"]["vacuous"] is True


def test_classify_gauduchon_conformal_metric_n2():
    # for n = 2 every conformal factor e^u with harmonic-like correction is
    # not automatically Gauduchon; but the flat metric scaled by a constant is.
    g = HermitianMetricField(GRID2, 2.5 * identity_metric(GRID2).g)
    rep = classify(g, 1e-10)
    assert rep.gauduchon and rep.kahler


def test_classify_n3_astheno_not_vacuous():
    grid = PeriodicGrid(3, (16, 16, 1, 1, 1, 1))
    rep = classify(identity_metric(grid), 1e-10)
    assert rep.astheno_kahler and not rep.astheno_vacuous
    assert rep.astheno_residual is not None and rep.astheno_residual < 1e-12
