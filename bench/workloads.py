"""The four workloads: seeded inputs, the timed operation and its check.

Each workload exposes
    make_inputs(seed, workdir) -> list of inputs, one round of operations
    run(hw, inp)               -> raw output (this call is what is timed)
    check(inp, out)            -> (problems, counts)
where `hw` is the imported hermweb package.  hermweb sees only the arrays
and spec files made here; every check goes through `oracles`, which does
not import hermweb.  A run repeats whole rounds, so per-operation averages
over a run do not depend on how many rounds fit in it.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

import oracles

FLOW_SIZES = (16, 16, 1, 1)
FLOW_TOL = 1e-7
MA2_SIZES = (64, 64, 1, 1)
MA3_SIZES = (16, 16, 16, 1, 1, 1)
SPEC2_SIZES = (64, 64, 1, 1)
SPEC3_SIZES = (16, 16, 16, 1, 1, 1)


def _grid(hw, sizes):
    return hw.PeriodicGrid(len(sizes) // 2, sizes)


# ---------------------------------------------------------------------------
# flow: Chern-Ricci flow of a one-axis bump metric to ricci_norm <= 1e-7
# ---------------------------------------------------------------------------

class Flow:
    """g_jj = 1 + a cos(2 pi x_k), k != j; one flow per round.

    On 16x16 a flow takes about 1.1k steps.  With a <= 0.5 the grid mean of
    1 / (1 + a cos) is within 2e-9 of its integral, so the closed-form limit
    holds on the grid well inside the oracle's 1e-7.
    """

    @staticmethod
    def make_inputs(seed, workdir):
        rng = np.random.default_rng(seed)
        j = int(rng.integers(2))
        k = 1 - j
        a = float(rng.uniform(0.2, 0.5))
        g = np.zeros(FLOW_SIZES + (2, 2), dtype=np.complex128)
        g[..., 0, 0] = g[..., 1, 1] = 1.0
        xk = oracles.x_coordinates(FLOW_SIZES, 2)[k]
        g[..., j, j] = 1.0 + a * np.cos(2.0 * np.pi * xk)
        # explicit RK2 stability limit for the spectral Laplacian
        kmax2 = sum((s // 2) ** 2 for s in FLOW_SIZES if s > 1)
        return [{"g": g, "j": j, "k": k, "a": a, "dt0": 2.0 / (np.pi**2 * kmax2)}]

    @staticmethod
    def run(hw, inp):
        g = hw.HermitianMetricField(_grid(hw, FLOW_SIZES), inp["g"])
        return hw.run_flow(g, FLOW_TOL, inp["dt0"], 100_000)

    @staticmethod
    def check(inp, out):
        final, history = out
        problems = oracles.check_flow(
            inp["g"], final.g.g, inp["a"], inp["j"], inp["k"], [h.ricci_norm for h in history]
        )
        if not final.ricci_norm <= FLOW_TOL:
            problems.append(f"final ricci norm {final.ricci_norm:.3e} above {FLOW_TOL:g}")
        return problems, {"flow.steps": len(history) - 1}


# ---------------------------------------------------------------------------
# ma2 / ma3: Monge-Ampere solves, half Ricci-flat, half manufactured
# ---------------------------------------------------------------------------

def _random_hermitian(rng, n, norm):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = m + m.conj().T
    return norm * h / np.max(np.abs(np.linalg.eigvalsh(h)))


def _metric_waves(rng, n, kmax, amp, count=3):
    """Band-limited metric I + sum_w B_w cos(...); sum of |B_w| <= 3 amp."""
    return [
        (rng.integers(-kmax, kmax + 1, size=n), rng.uniform(0, 2 * np.pi), _random_hermitian(rng, n, amp))
        for _ in range(count)
    ]


def _potential_waves(rng, n, kmax, hess_budget, count=3):
    """Plane waves with nonzero k whose Hessians sum to norm <= hess_budget."""
    waves = []
    while len(waves) < count:
        k = rng.integers(-kmax, kmax + 1, size=n)
        if not k.any():
            continue
        c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0) * hess_budget / (count * np.pi**2 * (k @ k))
        waves.append((k, rng.uniform(0, 2 * np.pi), c))
    return waves


class _MongeAmpere:
    """One round is `per_round` solves: even ones Ricci-flat, odd ones manufactured."""

    sizes: tuple
    per_round: int
    kmax: int
    metric_amp: tuple
    hess_budget: float
    tol: float

    @classmethod
    def make_inputs(cls, seed, workdir):
        rng = np.random.default_rng(seed)
        n = len(cls.sizes) // 2
        # Amplitudes are stratified over metric_amp within each kind, so every
        # seed gets the same spread of hard and easy cases.
        half = cls.per_round // 2
        lo, hi = cls.metric_amp
        strata = [lo + (hi - lo) * (rng.permutation(half) + rng.uniform(size=half)) / half for _ in range(2)]
        cases = []
        for i in range(cls.per_round):
            amp = strata[i % 2][i // 2]
            g = oracles.wave_metric(cls.sizes, n, _metric_waves(rng, n, cls.kmax, amp))
            case = {"g": g, "kind": "ricci_flat"}
            if i % 2:
                phi, H = oracles.plane_wave_potential(
                    cls.sizes, n, _potential_waves(rng, n, cls.kmax, cls.hess_budget)
                )
                b = float(rng.uniform(-0.5, 0.5))
                case = {"g": g, "kind": "manufactured", "phi": phi, "b": b, "F": cls.manufactured(g, H, b)}
            cases.append(case)
        return cases

    @classmethod
    def run(cls, hw, inp):
        grid = _grid(hw, cls.sizes)
        g = hw.HermitianMetricField(grid, inp["g"])
        if inp["kind"] == "ricci_flat":
            F = hw.ricci_potential(g)
        else:
            F = hw.grid.ScalarField(grid, inp["F"])
        return cls.solve(hw, grid, g, F)

    @classmethod
    def check(cls, inp, sol):
        phi = sol.phi.values.real
        if inp["kind"] == "ricci_flat":
            problems = cls.ricci_flat_check(inp["g"], phi, sol.metric_out.g)
        else:
            problems = oracles.check_ma_manufactured(phi, sol.b, inp["phi"], inp["b"], cls.tol)
        backtracks = sum(round(-math.log2(step)) for _, _, _, step in sol.trace[1:])
        return problems, {"ma.newton_iters": sol.iterations, "ma.line_search_backtracks": backtracks}


class MA2(_MongeAmpere):
    """solve_ma2 on 64x64 n = 2 metrics with three waves of |k_i| <= 2."""

    sizes = MA2_SIZES
    per_round = 32
    kmax = 2
    metric_amp = (0.1, 0.2)
    hess_budget = 0.15
    tol = 1e-6
    manufactured = staticmethod(oracles.manufactured_ma2)
    ricci_flat_check = staticmethod(oracles.check_ma2_ricci_flat)

    @staticmethod
    def solve(hw, grid, g, F):
        return hw.solve_ma2(g, F)


class MA3(_MongeAmpere):
    """solve_ma3 with omega_0 = I on (16,16,16,1,1,1), waves of |k_i| <= 1."""

    sizes = MA3_SIZES
    per_round = 12
    kmax = 1
    metric_amp = (0.05, 0.12)
    hess_budget = 0.1
    tol = 1e-5
    manufactured = staticmethod(oracles.manufactured_ma3)
    ricci_flat_check = staticmethod(oracles.check_ma3_ricci_flat)

    @staticmethod
    def solve(hw, grid, g, F):
        return hw.solve_ma3(g, hw.identity_metric(grid), F)


# ---------------------------------------------------------------------------
# inspect: the command line on generated spec files
# ---------------------------------------------------------------------------

SPEC_COMMANDS = ("ricci", "classify", "flatten-conformal")
EXAMPLES = (
    ("hopf", ["--points", "50"]),
    ("nakamura", ["--points", "100"]),
    ("yoshihara", ["--bound", "1000"]),
)


def _num(x):
    return f"{x:.6f}"


def _bump_spec(name, sizes, rng):
    """Spec text and parameters of a bump metric g_jj = 1 + a cos(2 pi x_k)."""
    n = len(sizes) // 2
    j, k = (int(v) for v in rng.permutation(n)[:2])
    params = {
        "j": j,
        "k": k,
        "a": round(float(rng.uniform(0.2, 0.7)), 6),
        "diag": [round(float(rng.uniform(1.0, 2.0)), 6) for _ in range(n)],
        "offdiag": {},
    }
    if n == 2:
        c = complex(round(float(rng.uniform(-0.1, 0.1)), 6), round(float(rng.uniform(-0.1, 0.1)), 6))
        params["offdiag"][(0, 1)] = c
    lines = ["[manifold]", f"name = {name}", f"n = {n}", "sizes = " + " ".join(map(str, sizes)), "", "[metric]"]
    for i in range(n):
        for q in range(i, n):
            if i == q == j:
                value = f"1 + {_num(params['a'])}*cos(2*pi*x{k + 1})"
            elif i == q:
                value = _num(params["diag"][i])
            elif (i, q) in params["offdiag"]:
                c = params["offdiag"][(i, q)]
                value = f"{_num(c.real)} | {_num(c.imag)}"
            else:
                continue
            lines.append(f"g[{i + 1}][{q + 1}] = {value}")
    return "\n".join(lines) + "\n", params


class Inspect:
    """ricci, classify and flatten-conformal on an n = 2 and an n = 3 spec,
    then verify-example for the three models; `per_round` operations, each
    with its own pair of specs."""

    per_round = 4

    @classmethod
    def make_inputs(cls, seed, workdir):
        rng = np.random.default_rng(seed)
        ops = []
        for op in range(cls.per_round):
            opdir = Path(workdir) / f"op{op}"
            opdir.mkdir(parents=True, exist_ok=True)
            specs = []
            for name, sizes in (("bump2", SPEC2_SIZES), ("bump3", SPEC3_SIZES)):
                text, params = _bump_spec(name, sizes, rng)
                path = opdir / f"{name}.spec"
                path.write_text(text, encoding="utf-8")
                specs.append({"path": str(path), "sizes": sizes, "params": params})
            calls = [[cmd, "--spec", spec["path"]] for spec in specs for cmd in SPEC_COMMANDS]
            calls += [["verify-example", "--name", name] + extra for name, extra in EXAMPLES]
            outdirs = [str(opdir / "out" / f"{i:02d}") for i in range(len(calls))]
            calls = [c + ["--out", d] for c, d in zip(calls, outdirs)]
            ops.append({"specs": specs, "calls": calls, "outdirs": outdirs})
        return ops

    @staticmethod
    def run(hw, inp):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in inp["calls"]:
                codes.append(hw.cli.main(argv))
        return codes

    @staticmethod
    def check(inp, codes):
        problems = [f"{' '.join(c[:3])}: exit {rc}" for c, rc in zip(inp["calls"], codes) if rc != 0]
        if problems:
            return problems, {}
        outdirs = [Path(d) for d in inp["outdirs"]]
        reports = [oracles.parse_report((d / "report.txt").read_text(encoding="utf-8")) for d in outdirs]
        written = sum(f.stat().st_size for d in outdirs for f in d.iterdir())
        it = iter(zip(reports, outdirs))
        for spec in inp["specs"]:
            n = len(spec["sizes"]) // 2
            g = oracles.bump_spec_metric(spec["sizes"], n, spec["params"])
            ricci, _ = next(it)
            problems += oracles.check_ricci_report(ricci, g)
            classify, _ = next(it)
            problems += oracles.check_classify_report(classify, n, spec["params"])
            flatten, flatten_dir = next(it)
            F = oracles.read_field(flatten_dir / "ricci_potential.fld").real
            problems += oracles.check_flatten_report(flatten, F, g)
        for (report, _), check in zip(
            it, (oracles.check_hopf_report, oracles.check_nakamura_report, oracles.check_yoshihara_report)
        ):
            problems += check(report)
        return problems, {"report.bytes_written": written}


WORKLOADS = {"flow": Flow, "ma2": MA2, "ma3": MA3, "inspect": Inspect}
