"""A small expression language for periodic metric coefficient functions.

Grammar (EBNF, also published in docs/expression-grammar.md):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" [ "-" ] NUMBER ] ;
    atom    = NUMBER | "pi" | VARIABLE | FUNC "(" expr ")" | "(" expr ")" ;
    FUNC    = "sin" | "cos" | "exp" | "log" ;
    VARIABLE = ("x" | "y") DIGIT ;

Precedence: ^ binds tighter than unary minus, which binds tighter than * /,
which bind tighter than + -.  Binary + - * / are left associative; the
exponent of ^ must be a (possibly negated) numeric literal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

MAX_DEPTH = 64
FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ExprDomainError(ValueError):
    def __init__(self, message: str, point: dict):
        coords = ", ".join(f"{k}={v:.6g}" for k, v in point.items())
        super().__init__(f"{message} at point ({coords})")
        self.point = point


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    part: str  # "x" or "y"
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: float


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|(?P<id>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {text[pos:].lstrip()[0]!r}", len(text) - len(stripped))
        if m.group("num") is not None:
            tokens.append(("num", float(m.group(0)), m.start(1) if m.group("num") else m.start()))
        elif m.group("id") is not None:
            tokens.append(("id", m.group("id"), m.start("id")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.advance()

    def _enter(self, off: int):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression deeper than {MAX_DEPTH}", off)

    def parse(self):
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", off)
        return e

    def expr(self):
        self._enter(self.peek()[2])
        e = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            e = Bin(op, e, self.term())
        self.depth -= 1
        return e

    def term(self):
        e = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            e = Bin(op, e, self.unary())
        return e

    def unary(self):
        kind, val, off = self.peek()
        if (kind, val) == ("op", "-"):
            self._enter(off)
            self.advance()
            e = Neg(self.unary())
            self.depth -= 1
            return e
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            sign = 1.0
            if self.peek()[:2] == ("op", "-"):
                self.advance()
                sign = -1.0
            kind, val, off = self.peek()
            if kind != "num":
                raise ExprSyntaxError("exponent must be a numeric literal", off)
            self.advance()
            return Pow(base, sign * val)
        return base

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            return Num(val)
        if kind == "id":
            if val == "pi":
                return Num(float(np.pi))
            if val in FUNCTIONS:
                self.expect_op("(")
                self._enter(off)
                arg = self.expr()
                self.depth -= 1
                self.expect_op(")")
                return Call(val, arg)
            m = re.fullmatch(r"([xy])([1-9])", val)
            if m:
                idx = int(m.group(2))
                if idx > self.n:
                    raise ExprSyntaxError(f"variable {val} exceeds complex dimension n={self.n}", off)
                return Var(m.group(1), idx)
            raise ExprSyntaxError(f"unknown identifier {val!r}", off)
        if (kind, val) == ("op", "("):
            self._enter(off)
            e = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"expected a value, got {val!r}", off)


def parse(text: str, n: int):
    """Parse an expression for complex dimension n into an AST."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, n).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_source(e) -> str:
    """Canonical printed form; reparsing yields an identical AST."""
    return _print(e, 0)


def _print(e, parent_prec: int) -> str:
    if isinstance(e, Num):
        s = repr(e.value)
        return f"({s})" if e.value < 0 and parent_prec > 1 else s
    if isinstance(e, Var):
        return f"{e.part}{e.index}"
    if isinstance(e, Neg):
        inner = _print(e.arg, 3)
        s = f"-{inner}"
        return f"({s})" if parent_prec > 3 else s
    if isinstance(e, Bin):
        prec = _PREC[e.op]
        # left associative: right child needs strictly higher precedence
        left = _print(e.left, prec)
        right = _print(e.right, prec + 1)
        s = f"{left} {e.op} {right}"
        return f"({s})" if parent_prec > prec else s
    if isinstance(e, Pow):
        base = _print(e.base, 5)
        s = f"{base}^{repr(e.exponent)}"
        # power is non-associative with literal exponents: a base that is
        # itself a power must be parenthesized
        return f"({s})" if parent_prec > 4 else s
    if isinstance(e, Call):
        return f"{e.func}({_print(e.arg, 0)})"
    raise TypeError(f"not an expression node: {e!r}")


def evaluate_on(e, coords: dict[str, np.ndarray]) -> np.ndarray:
    """Evaluate on broadcastable coordinate arrays keyed 'x1'.. 'yn'.

    Raises ExprDomainError at the first point where a subexpression leaves
    its domain or is not finite (overflow in exp or ^, division by a
    subnormal, a literal too large for a double).
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in coords.values()))

    def fail(message, bad_mask):
        idx = tuple(np.argwhere(np.broadcast_to(bad_mask, shape))[0])
        point = {
            k: float(np.broadcast_to(v, shape)[idx]) for k, v in sorted(coords.items())
        }
        raise ExprDomainError(message, point)

    def ev(node):
        value = ev_node(node)
        finite = np.isfinite(value)
        if not np.all(finite):
            fail(f"non-finite value of {to_source(node)!r}", ~finite)
        return value

    def ev_node(node):
        if isinstance(node, Num):
            return np.asarray(node.value, dtype=float)
        if isinstance(node, Var):
            return np.asarray(coords[f"{node.part}{node.index}"], dtype=float)
        if isinstance(node, Neg):
            return -ev(node.arg)
        if isinstance(node, Bin):
            l, r = ev(node.left), ev(node.right)
            if node.op == "+":
                return l + r
            if node.op == "-":
                return l - r
            if node.op == "*":
                return l * r
            bad = r == 0.0
            if np.any(bad):
                fail("division by zero", bad)
            return l / r
        if isinstance(node, Pow):
            base = ev(node.base)
            if node.exponent < 0 and np.any(base == 0.0):
                fail("zero raised to a negative power", base == 0.0)
            if node.exponent != int(node.exponent) and np.any(base < 0.0):
                fail("negative base with fractional exponent", base < 0.0)
            return np.power(base, node.exponent)
        if isinstance(node, Call):
            arg = ev(node.arg)
            if node.func == "log":
                bad = arg <= 0.0
                if np.any(bad):
                    fail("log of a non-positive value", bad)
            return FUNCTIONS[node.func](arg)
        raise TypeError(f"not an expression node: {node!r}")

    with np.errstate(over="ignore"):
        return np.broadcast_to(ev(e), shape)


def evaluate(e, grid):
    """Evaluate an AST on a PeriodicGrid, returning a ScalarField."""
    from .grid import ScalarField

    vals = evaluate_on(e, grid.coordinates())
    return ScalarField(grid, np.array(vals, dtype=np.complex128))
