"""Manifold spec files: a line-oriented key-value format with bracketed
sections (documented byte-exactly in docs/spec-file-format.md).

    [manifold]
    name = bump2
    n = 2
    sizes = 64 64 1 1        # axis order x1..xn then y1..yn

    [metric]
    g[1][1] = 1 + 0.5*cos(2*pi*x2)
    g[1][2] = 0 | 0          # real part | imaginary part
    g[2][2] = 1

    [reference]              # optional Kahler reference metric
    g[1][1] = 1
    ...

    [prescribed]             # optional prescribed F
    F = ...

Only entries g[i][j] with j >= i are given; the lower triangle is filled by
conjugate symmetry.  '#' starts a comment.  Any other section, or another
key in [manifold] or [prescribed], is a SpecError.

A metric section is loaded as its real stack (smallmat's layout): each entry
is evaluated straight into its stack row, and the stack is checked by
HermitianMetricField.from_stack.  No complex (n, n) field is built.
ManifoldSpec.data_grid collapses the axes of a grid that no expression of
[metric], [reference] or [prescribed] reads: every field of the spec is
constant along them, so its values, finiteness and positivity on the
collapsed grid are those on the whole one.

loads parses the file and checks its structure, its expressions' syntax and
its sizes; it evaluates no expression.  Each build_* evaluates its section
on the grid it is given and checks it there, so a command builds and checks
only the sections it reads.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import expr, smallmat
from .grid import PeriodicGrid, ScalarField
from .metric import HERMITIAN_TOL, HermitianMetricField, MetricError

_SECTION = re.compile(r"\[(.*)\]$")
# the keys of each section; a metric section's keys g[i][j] are checked
# when the section is read
_KEYS = {"manifold": ("name", "n", "sizes"), "metric": None, "reference": None, "prescribed": ("F",)}
_GKEY = re.compile(r"g\[([1-9])\]\[([1-9])\]$")

PERIODICITY_WARN_TOL = 1e-8


class SpecError(ValueError):
    pass


@dataclass(frozen=True)
class ManifoldSpec:
    name: str
    n: int
    sizes: tuple[int, ...]
    metric_exprs: dict  # (i, j) 1-based upper triangle -> (re AST, im AST | None)
    reference_exprs: dict | None = None
    F_expr: object | None = None

    def build_grid(self) -> PeriodicGrid:
        return PeriodicGrid(self.n, self.sizes)

    def data_grid(self, grid: PeriodicGrid) -> PeriodicGrid:
        """grid with every axis that no expression of the spec reads collapsed
        to size 1.  The metric, the reference and F are constant along such an
        axis, so on the torus every field computed from them is too."""
        pairs = [*self.metric_exprs.values(), *(self.reference_exprs or {}).values(), (self.F_expr, None)]
        asts = [ast for pair in pairs for ast in pair if ast is not None]
        read = set().union(*map(expr.variables, asts))
        names = [f"{part}{i}" for part in "xy" for i in range(1, grid.n + 1)]
        return PeriodicGrid(grid.n, tuple(s if name in read else 1 for name, s in zip(names, grid.sizes)))

    def build_metric(self, grid: PeriodicGrid | None = None) -> HermitianMetricField:
        return self._evaluate(self.metric_exprs, grid or self.build_grid(), "metric")

    def build_reference(self, grid: PeriodicGrid | None = None) -> HermitianMetricField | None:
        if self.reference_exprs is None:
            return None
        return self._evaluate(self.reference_exprs, grid or self.build_grid(), "reference")

    def build_F(self, grid: PeriodicGrid | None = None) -> ScalarField | None:
        if self.F_expr is None:
            return None
        grid = grid or self.build_grid()
        return ScalarField(grid, _evaluate_periodic(self.F_expr, grid, "prescribed.F"))

    def _evaluate(self, exprs: dict, grid: PeriodicGrid, section: str) -> HermitianMetricField:
        """The metric of a section, each entry evaluated into its stack row:
        g[i][i] into row i, the Re and Im parts of g[i][j], i < j, into rows
        n + r and n + k + r, r the index of (i, j) among the k upper entries.
        The lower triangle is the conjugate of the upper one, so the only
        Hermitian defect a spec can have is an imaginary part on the diagonal,
        which the stack drops once it is checked within HERMITIAN_TOL."""
        n = self.n
        _, iu, ju = smallmat._stack_index(n)
        k = len(iu)
        upper = {(i + 1, j + 1): n + r for r, (i, j) in enumerate(zip(iu, ju))}
        S = np.zeros((n * n,) + grid.shape)
        diagonal_im = []
        for (i, j), (re_ast, im_ast) in exprs.items():
            path = f"{section}.g[{i}][{j}]"
            row = i - 1 if i == j else upper[(i, j)]
            S[row] = _evaluate_periodic(re_ast, grid, path)
            if im_ast is not None:
                im = _evaluate_periodic(im_ast, grid, path)
                if i == j:
                    diagonal_im.append((row, im))
                else:
                    S[row + k] = im
        try:
            if diagonal_im:
                # max |g - g^H| = 2 max |Im g_ii|, against max |g_ij| with the
                # imaginary diagonal parts, as the constructor measures them
                defect = 2.0 * max(float(np.abs(im).max()) for _, im in diagonal_im)
                moduli = [np.hypot(S[r], im).max() for r, im in diagonal_im]
                if defect > HERMITIAN_TOL * max(1.0, smallmat.stack_max_modulus(S), *moduli):
                    raise MetricError(f"metric not Hermitian (defect {defect:.3e})")
            return HermitianMetricField.from_stack(grid, S)
        except MetricError as exc:
            raise SpecError(f"{section}: invalid metric: {exc}") from exc


def _evaluate_periodic(ast, grid: PeriodicGrid, path: str) -> np.ndarray:
    """The real values of ast on the grid, a read-only array of the grid's
    shape.  Spectral derivatives assume unit periodicity, so it warns on a
    wrap mismatch: each active axis that ast reads costs one more
    evaluation, on the coordinates shifted by one period.  A constant is
    evaluated once."""
    coords = grid.coordinates()
    base = expr.evaluate_on(ast, coords)
    read = expr.variables(ast)
    for key in coords:
        c = np.asarray(coords[key], dtype=float)
        if key not in read or c.size == 1:
            continue
        shifted = dict(coords)
        shifted[key] = c + 1.0
        diff = float(np.max(np.abs(expr.evaluate_on(ast, shifted) - base)))
        if diff > PERIODICITY_WARN_TOL:
            warnings.warn(
                f"{path}: value changes by {diff:.3e} under {key} -> {key}+1; "
                "spectral derivatives assume periodic coefficients",
                stacklevel=3,
            )
    return base


def _parse_value_pair(value: str, n: int, path: str):
    parts = value.split("|")
    if len(parts) > 2:
        raise SpecError(f"{path}: at most one '|' separating re | im parts")
    try:
        re_ast = expr.parse(parts[0], n)
        im_ast = expr.parse(parts[1], n) if len(parts) == 2 else None
    except expr.ExprSyntaxError as exc:
        raise SpecError(f"{path}: {exc}") from exc
    return re_ast, im_ast


def loads(text: str) -> ManifoldSpec:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    current_name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION.match(line)
        if m:
            current_name = m.group(1)
            if current_name not in _KEYS:
                known = ", ".join(f"[{name}]" for name in _KEYS)
                raise SpecError(f"line {lineno}: unknown section [{current_name}]; the sections are {known}")
            if current_name in sections:
                raise SpecError(f"line {lineno}: duplicate section [{current_name}]")
            current = sections.setdefault(current_name, {})
            continue
        if current is None:
            raise SpecError(f"line {lineno}: key-value pair before any section")
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in current:
            raise SpecError(f"line {lineno}: duplicate key {key!r} in [{current_name}]")
        allowed = _KEYS[current_name]
        if allowed is not None and key not in allowed:
            raise SpecError(f"line {lineno}: {current_name}.{key}: unknown key, [{current_name}] takes {', '.join(allowed)}")
        current[key] = value

    man = sections.get("manifold")
    if man is None:
        raise SpecError("missing [manifold] section")
    for req in ("name", "n", "sizes"):
        if req not in man:
            raise SpecError(f"manifold.{req}: missing")
    try:
        n = int(man["n"])
        sizes = tuple(int(s) for s in man["sizes"].split())
    except ValueError as exc:
        raise SpecError(f"manifold: {exc}") from exc
    if n not in (2, 3):
        raise SpecError(f"manifold.n: complex dimension must be 2 or 3, got {n}")

    def metric_section(name: str) -> dict:
        raw = sections[name]
        out = {}
        for key, value in raw.items():
            m = _GKEY.match(key)
            if not m:
                raise SpecError(f"{name}.{key}: expected keys of the form g[i][j]")
            i, j = int(m.group(1)), int(m.group(2))
            if not (1 <= i <= j <= n):
                raise SpecError(f"{name}.{key}: need 1 <= i <= j <= n = {n}")
            out[(i, j)] = _parse_value_pair(value, n, f"{name}.g[{i}][{j}]")
        for i in range(1, n + 1):
            if (i, i) not in out:
                raise SpecError(f"{name}.g[{i}][{i}]: missing diagonal entry")
        return out

    if "metric" not in sections:
        raise SpecError("missing [metric] section")
    metric_exprs = metric_section("metric")
    reference_exprs = metric_section("reference") if "reference" in sections else None

    F_ast = None
    if "prescribed" in sections:
        if "F" not in sections["prescribed"]:
            raise SpecError("prescribed.F: missing")
        F_ast, im = _parse_value_pair(sections["prescribed"]["F"], n, "prescribed.F")
        if im is not None:
            raise SpecError("prescribed.F: must be a real expression")

    spec = ManifoldSpec(
        name=man["name"],
        n=n,
        sizes=sizes,
        metric_exprs=metric_exprs,
        reference_exprs=reference_exprs,
        F_expr=F_ast,
    )
    try:
        spec.build_grid()
    except Exception as exc:
        raise SpecError(f"manifold.sizes: {exc}") from exc
    return spec


def load_spec(path) -> ManifoldSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
