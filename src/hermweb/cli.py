"""Command-line entry points.

Every spec command runs on the spec's data_grid of the requested grid: the
axes that no expression of [metric], [reference] or [prescribed] reads are
collapsed, since every field the command computes is constant along them.
Each command builds the sections it reads, once, on that grid.  A
--random-init start is noise on the axes the spec reads, and flow takes its
default first step from the requested grid.

--out DIR writes report.txt for every command; the solvers and flow also
write their rows to history.csv (a failed solve its residual rows), and
each field dump, DIR/<name>.fld, is written straight from the data-grid
array, broadcast to the requested grid.

Exit codes: 0 success, 1 input error, 2 solver non-convergence / failed check.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from . import report as rpt
from .flow import FlowError, run_flow
from .grid import _half_spectrum, hermitian_hessian_stack, irfft_active, rfft_active
from .ma import SolverConfig, SolverError, solve_ma2, solve_ma3
from .metric import _conformal_rescaling, classify, log_det, ricci_norm, ricci_potential
from .models import (
    flat_volume_descent_check,
    hopf_check,
    hopf_points,
    nakamura_check,
    nakamura_samples,
    yoshihara_check,
)
from .smallmat import stack_max_modulus
from .specfile import SpecError, loads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hermweb", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_command(name, summary, tol=True):
        # each command takes only the flags it reads
        p = sub.add_parser(name, help=summary)
        p.add_argument("--spec", required=True, help="manifold spec file")
        p.add_argument("--grid", default=None, help="override grid sizes, e.g. 64,64,1,1")
        p.add_argument("--out", default=None, help="output directory for report/CSV/field dumps")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="tolerance override")
        return p

    def re_im(text):
        # argparse reports a ValueError here as an invalid --t
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))

    add_spec_command("ricci", "Chern-Ricci form and Bott-Chern defect", tol=False)
    add_spec_command("flatten-conformal", "conformal Chern-Ricci-flat rescaling", tol=False)
    add_spec_command("classify", "metric class flags")
    for name, summary in (
        ("solve-ma2", "Monge-Ampere potential solver"),
        ("solve-ma3", "form-type solver (n=3, Kahler reference)"),
    ):
        p = add_spec_command(name, summary)
        p.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations)
        p.add_argument("--random-init", action="store_true", help="random small initial guess")
        p.add_argument("--seed", type=int, default=0, help="seed of the random initial guess")
    p = add_spec_command("flow", "Chern-Ricci flow integration")
    p.add_argument("--dt", type=float, default=None, help="initial time step")
    p.add_argument("--max-steps", type=int, default=100_000)
    p = sub.add_parser("verify-example", help="machine-check a built-in worked example")
    p.add_argument("--name", required=True, choices=["hopf", "nakamura", "yoshihara"])
    p.add_argument("--bound", type=int, default=1000, help="power bound for yoshihara")
    p.add_argument("--t", type=re_im, default=None, help="extra nakamura deformation parameter re,im")
    p.add_argument("--points", type=int, default=50, help="sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built on the first main call, then reused: parse_args fills a fresh
    # namespace with the defaults on every call
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a failed solve here
        raise SystemExit(1 if exc.code == 2 else exc.code) from None
    t_start = time.time()
    out = {"version": __version__, "command": args.command}

    # a flag's value is checked by the function that reads it (SolverConfig,
    # classify, run_flow, the seeded samplers), which raises a ValueError
    try:
        spec = grid = None
        if getattr(args, "spec", None) is not None:
            # one read, so the digest is that of the text parsed
            with open(args.spec, "rb") as fh:
                raw = fh.read()
            out["spec_digest"] = rpt.sha256_digest(raw)
            spec = loads(raw.decode("utf-8"))
            out["spec_name"] = spec.name
            # loads checked the file's own sizes, so only --grid can fail here
            try:
                if args.grid:
                    spec = replace(spec, sizes=tuple(int(s) for s in args.grid.split(",")))
                grid = spec.build_grid()
            except ValueError as exc:
                raise ValueError(f"--grid: {exc}") from None
        out["results"], rows, fields, exit_code = _dispatch(args, spec, grid)
        out["elapsed_seconds"] = time.time() - t_start
        text = rpt.render_report(out)
        print(text, end="")
        if args.out:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "report.txt").write_text(text, encoding="utf-8")
            if rows is not None:
                rpt.write_csv(outdir / "history.csv", *rows)
            # a field of the data grid, constant along the axes it
            # collapses, dumped on the requested grid
            for name, values in fields.items():
                rpt.dump_field(outdir / f"{name}.fld", grid, values)
    except (SpecError, OSError, ValueError) as exc:
        # an input that cannot be read or an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return exit_code


def _dispatch(args, spec, grid):
    cmd = args.command

    if cmd == "verify-example":
        if args.name == "hopf":
            reports = [hopf_check(hopf_points(args.points, 2, seed=args.seed), 2)]
        elif args.name == "nakamura":
            ts = [0.05, 0.1 + 0.1j, 0.3] + ([] if args.t is None else [args.t])
            reports = [nakamura_check(nakamura_samples(args.points, ts, seed=args.seed))]
        else:
            reports = [yoshihara_check(args.bound), flat_volume_descent_check()]
        results = {r.example: r.as_dict() for r in reports}
        return results, None, {}, 0 if all(r.passed for r in reports) else 2

    data = spec.data_grid(grid)
    g = spec.build_metric(data)
    tol = getattr(args, "tol", None)

    if cmd == "ricci":
        # Ric's stack up to sign, as ricci_norm reads it.  Its row means are the
        # stack of the Bott-Chern defect; Ric is del-dbar-exact, so not re-checked
        S = hermitian_hessian_stack(log_det(g), data)
        results = {
            "ricci_max_norm": {"value": stack_max_modulus(S)},
            "bott_chern_defect_max": {"value": stack_max_modulus(S.reshape(len(S), -1).mean(axis=1))},
        }
        return results, None, {}, 0

    if cmd == "flatten-conformal":
        # conformal_flatten(g), with the potential it rescales by kept for the dump
        F = ricci_potential(g)
        flat = _conformal_rescaling(g, F)
        d = flat.det()
        results = {
            "output_ricci_max_norm": {"value": ricci_norm(flat), "tolerance": 1e-10},
            "det_relative_spread": {"value": float(np.ptp(d) / np.mean(d)), "tolerance": 1e-12},
        }
        return results, None, {"ricci_potential": F.values}, 0

    if cmd == "classify":
        return {"classify": classify(g, 1e-8 if tol is None else tol).as_dict()}, None, {}, 0

    if cmd in ("solve-ma2", "solve-ma3"):
        cfg = SolverConfig(tolerance=SolverConfig.tolerance if tol is None else tol, max_iterations=args.max_iter)
        F = spec.build_F(data)
        if F is None:
            F = ricci_potential(g)
        init = _random_start(data, args.seed) if args.random_init else None
        try:
            if cmd == "solve-ma2":
                sol = solve_ma2(g, F, cfg, initial_phi=init)
            else:
                g0 = spec.build_reference(data)
                if g0 is None:
                    raise SpecError("solve-ma3 needs a [reference] metric section")
                sol = solve_ma3(g, g0, F, cfg, initial_phi=init)
        except SolverError as exc:
            results = {
                "converged": {"value": False},
                "message": {"value": str(exc)},
                "residual_history": {"values": list(exc.history)},
            }
            rows = ["iteration", "residual"], list(enumerate(exc.history))
            return results, rows, {}, 2
        results = {
            "converged": {"value": True, "tolerance": cfg.tolerance},
            "b": {"value": sol.b},
            "iterations": {"value": sol.iterations},
            "gmres_iterations": {"value": sum(sol.linear_iterations)},
            # each halving of a Newton step is one backtrack
            "line_search_backtracks": {"value": sum(round(-math.log2(row[3])) for row in sol.trace[1:])},
            "final_residual": {"value": sol.residual_history[-1], "tolerance": cfg.tolerance},
            "output_ricci_max_norm": {"value": ricci_norm(sol.metric_out)},
        }
        # the Newton step that produced trace row i made linear_iterations[i - 1]
        # GMRES iterations at relative tolerance linear_rtols[i - 1]; row 0 is
        # the initial guess
        linear = [(0, 0.0)] + list(zip(sol.linear_iterations, sol.linear_rtols))
        rows = (
            ["iteration", "residual", "b", "step", "gmres_iters", "gmres_rtol"],
            [row + its_rtol for row, its_rtol in zip(sol.trace, linear)],
        )
        return results, rows, {"phi": sol.phi.values, "F": F.values}, 0

    if cmd == "flow":
        flow_tol = 1e-6 if tol is None else tol
        # the requested grid's first step, so that a flow on the data grid,
        # whose max_dt is the same, takes the same steps
        dt0 = _default_dt(grid) if args.dt is None else args.dt
        try:
            final, history = run_flow(g, flow_tol, dt0, args.max_steps)
        except FlowError as exc:
            return {"converged": {"value": False}, "message": {"value": str(exc)}}, None, {}, 2
        results = {
            "converged": {"value": True, "tolerance": flow_tol},
            "steps": {"value": len(history) - 1},
            "rejected_steps": {"value": sum(h.rejected for h in history)},
            "final_time": {"value": final.t},
            "final_ricci_max_norm": {"value": final.ricci_norm, "tolerance": flow_tol},
        }
        rows = (
            ["t", "dt", "ricci_norm", "rejected", "reason"],
            [(h.t, h.dt, h.ricci_norm, h.rejected, h.reason) for h in history],
        )
        fields = {
            f"g_{i + 1}{j + 1}": final.g.g[..., i, j]
            for i in range(grid.n)
            for j in range(grid.n)
        }
        return results, rows, fields, 0

    raise ValueError(f"unknown command {cmd}")


def _random_start(grid, seed):
    # noise with |k| <= 2 on each active axis, at max-norm 1e-3: white noise
    # has a Hessian that grows like N^2 and loses positivity on fine grids
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    keep = np.ones(grid.shape, dtype=bool)
    for a in grid.active_axes:
        keep &= np.abs(grid.wavenumbers(a)) <= 2
    spectrum = rfft_active(rng.standard_normal(grid.shape), grid)
    noise = irfft_active(keep[_half_spectrum(grid)] * spectrum, grid)
    return noise * (1e-3 / np.max(np.abs(noise)))


def _default_dt(grid):
    # the explicit RK2 stability limit of the spectral complex Laplacian: a
    # safe first step, which run_flow then grows under its error control.  A
    # grid without active axes has no such limit; its metric is constant, so
    # Ricci-flat, and the flow takes no step
    kmax2 = sum((grid.sizes[a] // 2) ** 2 for a in grid.active_axes)
    return 2.0 / (np.pi**2 * kmax2) if kmax2 else 1.0


if __name__ == "__main__":
    raise SystemExit(main())
