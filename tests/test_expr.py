import re
import warnings

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

from helpers import scanning_evaluate_on


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


@pytest.mark.parametrize("text, offset", [("x2^1e999", 3), ("x2^-1e999", 4), ("(1 + x1)^2.5E+400", 9)])
def test_rejects_an_exponent_literal_beyond_the_double_range(text, offset):
    # evaluation would ask int() of an infinite exponent; a base literal
    # beyond the range stays a domain error of the evaluation (_NON_FINITE)
    with pytest.raises(ExprSyntaxError, match="exponent literal beyond the double range") as err:
        parse(text, 2)
    assert err.value.offset == offset


@pytest.mark.parametrize("exponent", [float("inf"), float("-inf"), float("nan")], ids=["inf", "-inf", "nan"])
def test_a_non_finite_exponent_is_a_domain_error(exponent):
    # only an AST built by hand carries one, since the parser rejects the
    # literal; x1^inf would be 0 on [0, 1) and nan sets no trap, so the
    # exponent is tested itself
    coords = PeriodicGrid(2, (8, 8, 1, 1)).coordinates()
    message = re.escape(f"exponent of 'x1^{exponent!r}' is not finite at point (x1=0, x2=0, y1=0, y2=0)")
    with pytest.raises(ExprDomainError, match=message):
        evaluate_on(Pow(Var("x", 1), exponent), coords)


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


_NON_FINITE = [
    ("exp(1000)", "exp(1000.0)"),
    ("1e999", "inf"),
    ("1e999*x1", "inf"),
    ("1 / 2.225073858507e-311", "1.0 / 2.225073858507e-311"),
    ("2.225073858507e-311^-1.0", "2.225073858507e-311^-1.0"),
    ("(10^200)^2", "(10.0^200.0)^2.0"),
    ("sin(exp(800) * x1)", "exp(800.0)"),
    # the value the overflow feeds is finite (1 / inf is 0) or NaN (0 * inf)
    ("1 / exp(1000)", "exp(1000.0)"),
    ("1 / 1e999", "inf"),
    ("0 * exp(800)^2", "exp(800.0)"),
]


@pytest.mark.parametrize("text, culprit", _NON_FINITE, ids=[text for text, _ in _NON_FINITE])
def test_evaluate_rejects_non_finite_values(text, culprit):
    grid = PeriodicGrid(2, (8, 8, 1, 1))
    message = re.escape(f"non-finite value of {culprit!r} at point (x1=0, x2=0, y1=0, y2=0)")
    with pytest.raises(ExprDomainError, match=message):
        evaluate(parse(text, 2), grid)


@pytest.mark.parametrize("text", ["1 + 0.5*cos(2*pi*x1) / exp(y1) - log(2 + x2)^-1.5", "exp(-1000)", "1e-320 * 1e-10"])
def test_a_valid_expression_is_evaluated_without_a_finiteness_scan(monkeypatch, text):
    # the trapped walk scans nothing; an underflow to 0 is no trap, so it
    # does not rerun the walk with the scan either
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda *args, **kwargs: calls.append(1) or isfinite(*args, **kwargs))
    value = evaluate_on(parse(text, 2), PeriodicGrid(2, (8, 8, 8, 1)).coordinates())
    assert calls == []
    assert isfinite(value).all()


def test_underflow_to_zero_is_not_an_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = evaluate(parse("exp(-1000)", 2), PeriodicGrid(2, (8, 8, 1, 1))).values
    assert np.array_equal(value, np.zeros((8, 8, 1, 1)))


_near_double_range = st.builds(
    Num, st.sampled_from([0.0, 5e-324, 1e-320, 1e-300, 700.0, 1e300, 1e308, float("inf")])
)


def _node_with_log(children):
    return st.one_of(_node(children), st.builds(Call, st.just("log"), children))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ast, st.recursive(st.one_of(_leaf, _near_double_range), _node_with_log, max_leaves=25)))
@example(Bin("/", Num(1.0), Num(float("inf"))))
@example(Bin("*", Num(0.0), Pow(Call("exp", Num(800.0)), 2.0)))
@example(Call("log", Bin("-", Var("x", 1), Var("x", 1))))
def test_evaluate_on_matches_the_scanning_evaluator(ast):
    # byte-identical values, or the same error for the same subexpression
    # and point
    coords = PeriodicGrid(2, (8, 8, 8, 1)).coordinates()
    outcomes = []
    for evaluator in (evaluate_on, scanning_evaluate_on):
        try:
            value = evaluator(ast, coords)
            outcomes.append((value.shape, value.tobytes()))
        except ExprDomainError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


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
