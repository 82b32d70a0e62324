import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermweb.expr import (
    Bin,
    Call,
    ExprDomainError,
    ExprSyntaxError,
    Neg,
    Num,
    Pow,
    Var,
    evaluate,
    evaluate_on,
    parse,
    to_source,
    variables,
)
from hermweb.grid import PeriodicGrid


def ev(text, n=2, **coords):
    arrs = {k: np.asarray(v, dtype=float) for k, v in coords.items()}
    return evaluate_on(parse(text, n), arrs)


# ---------------------------------------------------------------------------
# accepted inputs, one per grammar production
# ---------------------------------------------------------------------------

def test_number_literals():
    assert ev("3") == 3.0
    assert ev("2.5") == 2.5
    assert ev(".5") == 0.5
    assert ev("1e3") == 1000.0
    assert ev("2.5E-2") == 0.025


def test_variables_and_pi():
    assert ev("x1", x1=0.25) == 0.25
    assert ev("y2", y2=-0.5) == -0.5
    assert ev("pi") == pytest.approx(np.pi)
    assert isinstance(parse("pi", 2), Num)  # folded at parse time


def test_binary_operators_and_precedence():
    assert ev("1 + 2 * 3") == 7.0
    assert ev("2 + 3 * 4^2") == 50.0
    assert ev("8 - 3 - 2") == 3.0  # left associative
    assert ev("8 / 4 / 2") == 1.0
    assert ev("(1 + 2) * 3") == 9.0


def test_unary_minus_binds_looser_than_power():
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("--3") == 3.0
    assert ev("2 - -3") == 5.0


def test_power_with_literal_exponents():
    assert ev("2^3") == 8.0
    assert ev("2^-2") == 0.25
    assert ev("x1^2", x1=3.0) == 9.0
    assert ev("4^0.5") == 2.0


def test_function_calls():
    assert ev("sin(0)") == 0.0
    assert ev("cos(0)") == 1.0
    assert ev("exp(0)") == 1.0
    assert ev("log(1)") == 0.0
    assert ev("sin(pi / 2)") == pytest.approx(1.0)
    assert ev("exp(log(5))") == pytest.approx(5.0)


def test_nested_expression():
    got = ev("1 + 0.5 * cos(2 * pi * x1)", x1=np.array([0.0, 0.25, 0.5]))
    assert np.allclose(got, [1.5, 1.0, 0.5])


# ---------------------------------------------------------------------------
# rejected inputs, one per grammar production
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    [
        "",                 # empty
        "   ",              # whitespace only
        "1 +",              # dangling binary op
        "* 2",              # leading binary op
        "(1 + 2",           # unbalanced paren
        "1 + 2)",           # trailing garbage
        "2 ^ x1",           # non-literal exponent
        "2 ^ (3)",          # parenthesized exponent is not a literal
        "sin",              # function without argument list
        "sin 1",            # function without parens
        "tan(1)",           # unknown function
        "x3",               # variable beyond n = 2
        "x0",               # indices start at 1
        "z1",               # unknown identifier
        "1 @ 2",            # unknown character
        "1..2",             # malformed number
    ],
)
def test_rejects(bad):
    with pytest.raises(ExprSyntaxError):
        parse(bad, 2)


def test_depth_limit():
    deep = "(" * 100 + "1" + ")" * 100
    with pytest.raises(ExprSyntaxError):
        parse(deep, 2)
    ok = "(" * 30 + "1" + ")" * 30
    assert ev(ok) == 1.0


def test_domain_error_on_log_of_negative():
    with pytest.raises(ExprDomainError):
        ev("log(0 - 1)")
    with pytest.raises(ExprDomainError):
        ev("log(x1 - 10)", x1=np.array([0.0, 0.5]))


def test_division_by_zero_is_domain_error():
    with pytest.raises(ExprDomainError):
        ev("1 / (x1 - x1)", x1=np.array([1.0]))


# ---------------------------------------------------------------------------
# printer round trip
# ---------------------------------------------------------------------------

def test_print_parse_examples():
    for text in [
        "1 + 2 * 3",
        "-x1^2",
        "(x1 + y1) * (x2 - y2)",
        "sin(2 * pi * x1) / (2 - cos(y2))",
        "1 - 2 - 3",
        "2^-3",
        "-(x1 + 1)",
    ]:
        ast = parse(text, 2)
        printed = to_source(ast)
        assert parse(printed, 2) == ast


_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    st.builds(Var, st.sampled_from(["x", "y"]), st.integers(1, 2)),
)


def _node(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Bin, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(Pow, children, st.sampled_from([2.0, 3.0, -1.0, 0.5])),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp"]), children),
    )


_ast = st.recursive(_leaf, _node, max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(_ast)
def test_print_parse_round_trip_property(ast):
    printed = to_source(ast)
    assert parse(printed, 2) == ast


@settings(max_examples=50, deadline=None)
@given(_ast)
@example(Call("sin", Pow(Num(2.225073858507e-311), -1.0)))  # 1/subnormal overflows, sin(inf) = nan
def test_evaluate_is_pure(ast):
    grid = PeriodicGrid(2, (8, 8, 1, 1))
    try:
        a = evaluate(ast, grid).values
        b = evaluate(ast, grid).values
    except ExprDomainError:
        return
    assert np.array_equal(a, b)


def test_evaluate_on_grid_shapes():
    grid = PeriodicGrid(2, (8, 1, 16, 1))
    f = evaluate(parse("cos(2 * pi * x1) + y1", 2), grid)
    assert f.values.shape == grid.shape


@pytest.mark.parametrize(
    "text",
    [
        "exp(1000)",
        "1e999",
        "1 / 2.225073858507e-311",
        "2.225073858507e-311^-1.0",
        "(10^200)^2",
        "sin(exp(800) * x1)",
    ],
)
def test_evaluate_rejects_non_finite_values(text):
    grid = PeriodicGrid(2, (8, 8, 1, 1))
    with pytest.raises(ExprDomainError, match="non-finite"):
        evaluate(parse(text, 2), grid)


@pytest.mark.parametrize(
    "text, read",
    [
        ("3", set()),
        ("2*pi^2 - exp(1)", set()),
        ("x1", {"x1"}),
        ("-(x2 + 1)^3 / cos(2*pi*y1)", {"x2", "y1"}),
        ("log(2 + sin(x1*y3)) - x1", {"x1", "y3"}),
    ],
)
def test_variables_are_the_coordinates_an_expression_reads(text, read):
    assert variables(parse(text, 3)) == read
