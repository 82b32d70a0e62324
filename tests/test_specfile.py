from collections import Counter

import numpy as np
import pytest

import hermweb.expr
from hermweb.grid import PeriodicGrid
from hermweb.metric import HermitianMetricField, MetricError, classify
from hermweb.specfile import ManifoldSpec, SpecError, load_spec, loads


FLAT = """
[manifold]
name = flat
n = 2
sizes = 8 8 1 1

[metric]
g[1][1] = 1
g[2][2] = 1
"""

BUMP = """
# a non-Kahler warmup example
[manifold]
name = bump
n = 2
sizes = 1 16 1 1   # only x2 active

[metric]
g[1][1] = 1 + 0.5*cos(2*pi*x2)
g[1][2] = 0 | 0
g[2][2] = 1
"""


def test_flat_spec_loads_and_classifies():
    spec = loads(FLAT)
    assert spec.name == "flat"
    assert spec.n == 2
    assert spec.sizes == (8, 8, 1, 1)
    g = spec.build_metric()
    rep = classify(g, 1e-10)
    assert rep.flag("kahler") and rep.flag("balanced") and rep.flag("gauduchon")


def test_bump_spec_with_comments_and_pairs():
    spec = loads(BUMP)
    g = spec.build_metric()
    x2 = spec.build_grid().coordinate(1)
    assert np.allclose(g.g[..., 0, 0], 1 + 0.5 * np.cos(2 * np.pi * x2))
    assert not classify(g, 1e-8).flag("kahler")


def test_conjugate_symmetry_fills_lower_triangle():
    text = FLAT.replace("g[2][2] = 1", "g[2][2] = 2\ng[1][2] = 0.1 | 0.05")
    g = loads(text).build_metric()
    assert np.allclose(g.g[..., 0, 1], 0.1 + 0.05j)
    assert np.allclose(g.g[..., 1, 0], 0.1 - 0.05j)


def test_reference_and_prescribed_sections():
    text = (
        FLAT
        + """
[reference]
g[1][1] = 2
g[2][2] = 2

[prescribed]
F = 0.01 * sin(2*pi*x1)
"""
    )
    spec = loads(text)
    grid = spec.build_grid()
    ref = spec.build_reference(grid)
    assert np.allclose(ref.g[..., 0, 0], 2.0)
    F = spec.build_F(grid)
    assert np.allclose(F.values, 0.01 * np.sin(2 * np.pi * grid.coordinate(0)) * np.ones(grid.shape))


def test_build_reference_none_when_absent():
    spec = loads(FLAT)
    assert spec.build_reference() is None
    assert spec.build_F() is None


SECTIONS = "[manifold], [metric], [reference], [prescribed]"


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda t: t.replace("[manifold]", "[mainfold]"), "manifold"),
        (lambda t: t.replace("sizes = 8 8 1 1\n", ""), "sizes"),
        (lambda t: t.replace("[metric]", "[metrics]"), "metric"),
        (lambda t: t.replace("g[2][2] = 1\n", ""), "g[2][2]"),
        (lambda t: t.replace("g[1][1] = 1", "g[1][1] = -1"), "metric"),
        (lambda t: t.replace("g[1][1] = 1", "g[1][1] = 1 +"), "g[1][1]"),
        (lambda t: t.replace("g[1][1] = 1", "h[1][1] = 1"), "g[i][j]"),
        (lambda t: t.replace("g[1][1] = 1", "g[2][1] = 1"), "i <= j"),
        (lambda t: t.replace("sizes = 8 8 1 1", "sizes = 8 8 1"), "sizes"),
        (lambda t: t.replace("sizes = 8 8 1 1", "sizes = eight 8 1 1"), "manifold"),
        (lambda t: t + "\n[metric]\ng[1][1] = 1\n", "duplicate section"),
        (lambda t: t.replace("n = 2", "n = 2\nn = 3"), "duplicate key"),
        (lambda t: "stray = 1\n" + t, "before any section"),
        (lambda t: t.replace("g[1][1] = 1", "g[1][1] = 1 | 2 | 3"), "|"),
        (lambda t: t + "\n[prescibed]\nF = 0.1*cos(2*pi*x1)\n", SECTIONS),
        (lambda t: t.replace("n = 2", "n = 2\ncolour = red"), "manifold.colour"),
        (lambda t: t + "\n[prescribed]\nF = 0.1*cos(2*pi*x1)\nG = 1\n", "prescribed.G"),
        # every bracketed line is a section header, named as written
        *(
            pytest.param(lambda t, h=header: t + f"\n{h}\nF = 0.1*cos(2*pi*x1)\n", SECTIONS, id=header)
            for header in ("[Prescribed]", "[prescribed ]", "[metric2]")
        ),
    ],
)
def test_spec_errors(mutate, needle):
    # loads rejects a malformed file, and the metric's build an invalid metric
    with pytest.raises(SpecError) as exc_info:
        loads(mutate(FLAT)).build_metric()
    assert needle in str(exc_info.value)


@pytest.mark.parametrize(
    "n,extra", [(1, ""), (4, ""), (4, "g[3][3] = 1\ng[4][4] = 1\n")], ids=["n1", "n4", "n4-all-diagonals"]
)
def test_spec_names_n_out_of_range(n, extra):
    # before the metric section is read, whose keys depend on n
    with pytest.raises(SpecError, match=r"^manifold\.n: complex dimension must be 2 or 3, got " + str(n)):
        loads(FLAT.replace("n = 2", f"n = {n}") + extra)


def test_prescribed_f_must_be_real():
    text = FLAT + "\n[prescribed]\nF = 1 | 1\n"
    with pytest.raises(SpecError):
        loads(text)


def test_data_grid_collapses_the_axes_no_spec_expression_reads():
    # both parts of every metric entry count, and so do the reference and F:
    # an axis that only one of them reads stays active
    metric = FLAT.replace("sizes = 8 8 1 1", "sizes = 8 8 8 8").replace(
        "g[2][2] = 1", "g[2][2] = 1 + 0.1*cos(2*pi*x2)\ng[1][2] = 0.1 | 0.05*sin(2*pi*y2)"
    )
    reference = "\n[reference]\ng[1][1] = 1 + 0.1*cos(2*pi*x1)\ng[2][2] = 1\n"
    prescribed = "\n[prescribed]\nF = 0.01 * sin(2*pi*y1)\n"
    whole = PeriodicGrid(2, (8, 8, 8, 8))
    assert loads(metric).data_grid(whole) == PeriodicGrid(2, (1, 8, 1, 8))
    assert loads(metric + reference).data_grid(whole) == PeriodicGrid(2, (8, 8, 1, 8))
    assert loads(metric + prescribed).data_grid(whole) == PeriodicGrid(2, (1, 8, 8, 8))
    spec = loads(metric + reference + prescribed)
    assert spec.data_grid(whole) == whole
    assert spec.data_grid(PeriodicGrid(2, (16, 1, 16, 16))) == PeriodicGrid(2, (16, 1, 16, 16))
    assert loads(FLAT).data_grid(PeriodicGrid(2, (8, 8, 1, 1))) == PeriodicGrid(2, (1, 1, 1, 1))
    assert loads(BUMP).data_grid(PeriodicGrid(2, (1, 16, 1, 1))) == PeriodicGrid(2, (1, 16, 1, 1))


def test_periodicity_warning():
    spec = loads(FLAT.replace("g[1][1] = 1", "g[1][1] = 2 + x1"))
    with pytest.warns(UserWarning, match="periodic"):
        spec.build_metric()


def test_periodic_coefficient_no_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loads(BUMP).build_metric()


def test_load_spec_from_path(tmp_path):
    path = tmp_path / "flat.hwspec"
    path.write_text(FLAT, encoding="utf-8")
    spec = load_spec(path)
    assert isinstance(spec, ManifoldSpec)
    assert spec == loads(FLAT)


def test_each_expression_is_evaluated_once_plus_once_per_active_axis(monkeypatch):
    # the periodicity probe's unshifted evaluation gives the values; each
    # active axis the expression reads adds one evaluation on coordinates
    # shifted by a period, so a constant, or an expression of the collapsed
    # y1 alone, is evaluated once
    text = """
[manifold]
name = three_axes
n = 2
sizes = 8 8 1 8   # x1, x2 and y2 active

[metric]
g[1][1] = 2 + 0.5*cos(2*pi*x2)
g[1][2] = 0.1*sin(2*pi*y2) | 0.1*cos(2*pi*x1)
g[2][2] = 3

[reference]
g[1][1] = 1 + 0.1*cos(2*pi*y1)
g[2][2] = 1 + 0.25*sin(2*pi*x1)

[prescribed]
F = 0.2*cos(2*pi*x1)
"""
    calls = Counter()
    evaluate_on = hermweb.expr.evaluate_on

    def counting(ast, coords):
        calls[id(ast)] += 1
        return evaluate_on(ast, coords)

    monkeypatch.setattr(hermweb.expr, "evaluate_on", counting)
    spec = loads(text)
    grid = spec.build_grid()
    spec.build_F(grid)
    spec.build_metric(grid)
    spec.build_reference(grid)
    asts = [spec.F_expr] + [
        ast
        for exprs in (spec.metric_exprs, spec.reference_exprs)
        for pair in exprs.values()
        for ast in pair
        if ast is not None
    ]
    assert len(asts) == 7 and len(calls) == 7
    # F, then g11, Re g12, Im g12 and g22 of the metric, then the reference's
    active_read = [1, 1, 1, 1, 0, 0, 1]
    assert [calls[id(ast)] for ast in asts] == [1 + k for k in active_read]
    # the values are those of a plain evaluation on the grid
    F = hermweb.expr.evaluate(spec.F_expr, grid)
    assert np.array_equal(spec.build_F(grid).values, F.values)


def test_loads_evaluates_no_expression(monkeypatch):
    # loads checks the file's structure and syntax; each section's values are
    # checked by its build, so a spec whose metric is not positive definite
    # and whose reference is not Hermitian loads, and each build rejects it
    import hermweb.specfile

    text = FLAT.replace("g[1][1] = 1", "g[1][1] = -1") + (
        "\n[reference]\ng[1][1] = 1 | 0.5\ng[2][2] = 1\n\n[prescribed]\nF = 0.1*cos(2*pi*x1)\n"
    )

    def refuse(*args):
        raise AssertionError("loads evaluated an expression")

    monkeypatch.setattr(hermweb.specfile, "_evaluate_periodic", refuse)
    spec = loads(text)
    monkeypatch.undo()
    with pytest.raises(SpecError, match=r"^metric: invalid metric: .*positive definite"):
        spec.build_metric()
    with pytest.raises(SpecError, match=r"^reference: invalid metric: metric not Hermitian"):
        spec.build_reference()
    assert spec.build_F().grid == spec.build_grid()


SPECS_AS_STACKS = {
    "64x64": """
[manifold]
name = wide
n = 2
sizes = 64 64 1 1

[metric]
g[1][1] = 1 + 0.3*cos(2*pi*x2)
g[1][2] = 0.1*sin(2*pi*x1) | 0.05*cos(2*pi*x2)
g[2][2] = 1.5
""",
    "16^3": """
[manifold]
name = cube
n = 3
sizes = 16 16 16 1 1 1

[metric]
g[1][1] = 1 + 0.2*cos(2*pi*x2)
g[1][3] = 0.05*sin(2*pi*x3) | 0.02
g[2][2] = 1.3
g[2][3] = 0.1*cos(2*pi*x1)
g[3][3] = 1 + 0.1*sin(2*pi*(x1 + x3))
""",
    "two axes": """
[manifold]
name = two_axes
n = 2
sizes = 16 1 1 16   # x1 and y2

[metric]
g[1][1] = 2 + 0.5*cos(2*pi*y2)
g[1][2] = 0.1*cos(2*pi*y2) | 0.1*sin(2*pi*x1)
g[2][2] = 1 + 0.25*sin(2*pi*(x1 - y2))
""",
}


def constructor_metric(text: str) -> HermitianMetricField:
    """The metric of a spec's [metric] section through the public
    constructor: its entries evaluated into a complex (n, n) field, the
    lower triangle the conjugate of the upper one."""
    spec = loads(text)
    grid = spec.build_grid()
    n = spec.n
    g = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    for (i, j), (re_ast, im_ast) in spec.metric_exprs.items():
        value = hermweb.expr.evaluate_on(re_ast, grid.coordinates()) + 0j
        if im_ast is not None:
            value = value + 1j * hermweb.expr.evaluate_on(im_ast, grid.coordinates())
        g[..., i - 1, j - 1] = value
        if i != j:
            g[..., j - 1, i - 1] = np.conj(value)
    return HermitianMetricField(grid, g)


@pytest.mark.parametrize("name", SPECS_AS_STACKS)
def test_spec_metrics_equal_the_constructors(name):
    # the loader evaluates each entry into its stack row, building no complex
    # field: its stack is the constructor's byte for byte
    text = SPECS_AS_STACKS[name]
    got, want = loads(text).build_metric(), constructor_metric(text)
    assert got.stack.dtype == want.stack.dtype and got.stack.shape == want.stack.shape
    assert got.stack.tobytes() == want.stack.tobytes()
    assert np.array_equal(got.g, want.g)


@pytest.mark.parametrize(
    "value, accepted",
    [("1 | 0.5", False), ("1 | 1e-7", False), ("1 | 1e-12", True), ("1e4 | 1e-7", True)],
)
def test_spec_checks_imaginary_diagonal_parts(value, accepted):
    # 2 max |Im g_ii| against HERMITIAN_TOL max(1, max |g|), as the
    # constructor measures the complex field; an accepted part is dropped
    text = FLAT.replace("g[1][1] = 1\n", f"g[1][1] = {value}\n")
    grid = loads(FLAT).build_grid()
    g = np.zeros(grid.shape + (2, 2), dtype=np.complex128)
    g[..., 0, 0] = complex(*(float(part) for part in value.split("|")))
    g[..., 1, 1] = 1.0
    if not accepted:
        spec = loads(text)
        with pytest.raises(SpecError, match=r"^metric: invalid metric: metric not Hermitian \(defect") as exc_info:
            spec.build_metric()
        with pytest.raises(MetricError) as constructor_info:
            HermitianMetricField(grid, g)
        assert str(exc_info.value) == f"metric: invalid metric: {constructor_info.value}"
        return
    got, want = loads(text).build_metric(), HermitianMetricField(grid, g)
    assert got.stack.tobytes() == want.stack.tobytes()
    assert np.array_equal(got.g[..., 0, 0], np.full(grid.shape, g[0, 0, 0, 0, 0, 0].real))
