"""Command-line entry points.

Exit codes: 0 success, 1 input error, 2 solver non-convergence / failed check.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import report as rpt
from .flow import FlowError, run_flow
from .grid import ScalarField
from .ma import SolverConfig, SolverError, solve_ma2, solve_ma3
from .metric import (
    bott_chern_defect,
    chern_ricci,
    classify,
    conformal_flatten,
    ricci_norm,
    ricci_potential,
)
from .models import (
    flat_volume_descent_check,
    hopf_check,
    hopf_points,
    nakamura_check,
    nakamura_samples,
    yoshihara_check,
)
from .specfile import SpecError, load_spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hermweb", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, spec=True):
        if spec:
            p.add_argument("--spec", required=True, help="manifold spec file")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--grid", default=None, help="override grid sizes, e.g. 64,64,1,1")
        p.add_argument("--out", default=None, help="output directory for report/CSV/field dumps")
        p.add_argument("--csv", action="store_true", help="emit CSV time series")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized initial guesses")
        return p

    add_common(sub.add_parser("ricci", help="Chern-Ricci form and Bott-Chern defect"))
    add_common(sub.add_parser("flatten-conformal", help="conformal Chern-Ricci-flat rescaling"))
    add_common(sub.add_parser("classify", help="metric class flags"))
    p = add_common(sub.add_parser("solve-ma2", help="Monge-Ampere potential solver"))
    p.add_argument("--max-iter", type=int, default=40)
    p.add_argument("--random-init", action="store_true", help="random small initial guess")
    p = add_common(sub.add_parser("solve-ma3", help="form-type solver (n=3, Kahler reference)"))
    p.add_argument("--max-iter", type=int, default=40)
    p.add_argument("--random-init", action="store_true")
    p = add_common(sub.add_parser("flow", help="Chern-Ricci flow integration"))
    p.add_argument("--dt", type=float, default=None, help="initial time step")
    p.add_argument("--max-steps", type=int, default=100_000)
    p = sub.add_parser("verify-example", help="machine-check a built-in worked example")
    p.add_argument("--name", required=True, choices=["hopf", "nakamura", "yoshihara"])
    p.add_argument("--bound", type=int, default=1000, help="power bound for yoshihara")
    p.add_argument("--t", default=None, help="extra nakamura deformation parameter re,im")
    p.add_argument("--points", type=int, default=50, help="sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--tol", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t_start = time.time()
    out = {"version": __version__, "command": args.command}
    rows_csv = None
    fields = {}
    exit_code = 0

    try:
        spec = None
        if getattr(args, "spec", None) is not None:
            spec = load_spec(args.spec)
            with open(args.spec, "rb") as fh:
                out["spec_digest"] = rpt.sha256_digest(fh.read())
            out["spec_name"] = spec.name
        results, rows_csv, fields, exit_code = _dispatch(args, spec)
        out["results"] = results
    except (SpecError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out["elapsed_seconds"] = time.time() - t_start
    text = rpt.render_report(out)
    print(text, end="")
    if getattr(args, "out", None):
        outdir = _ensure_dir(args.out)
        (outdir / "report.txt").write_text(text, encoding="utf-8")
        if args.csv and rows_csv is not None:
            header, rows = rows_csv
            rpt.write_csv(outdir / "history.csv", header, rows)
        for name, f in fields.items():
            rpt.dump_field(outdir / f"{name}.fld", f)
    return exit_code


def _ensure_dir(path):
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _dispatch(args, spec):
    cmd = args.command

    if cmd == "verify-example":
        if args.name == "hopf":
            report = hopf_check(hopf_points(args.points, 2, seed=args.seed), 2)
        elif args.name == "nakamura":
            ts = [0.05, 0.1 + 0.1j, 0.3]
            if args.t:
                re_s, im_s = args.t.split(",")
                ts.append(complex(float(re_s), float(im_s)))
            report = nakamura_check(nakamura_samples(max(args.points, 100), ts, seed=args.seed))
        else:
            reports = [yoshihara_check(args.bound), flat_volume_descent_check()]
            results = {r.example: r.as_dict() for r in reports}
            ok = all(r.passed for r in reports)
            return results, None, {}, 0 if ok else 2
        return {args.name: report.as_dict()}, None, {}, 0 if report.passed else 2

    if getattr(args, "grid", None):
        sizes = tuple(int(s) for s in args.grid.split(","))
        spec = replace(spec, sizes=sizes)
    grid = spec.build_grid()
    g = spec.build_metric(grid)
    tol = args.tol

    if cmd == "ricci":
        ric = chern_ricci(g)
        defect = bott_chern_defect(ric)
        results = {
            "ricci_max_norm": {"value": ric.max_norm()},
            "bott_chern_defect_max": {"value": float(np.max(np.abs(defect)))},
        }
        return results, None, {}, 0

    if cmd == "flatten-conformal":
        flat = conformal_flatten(g)
        d = flat.det()
        results = {
            "output_ricci_max_norm": {"value": ricci_norm(flat), "tolerance": 1e-10},
            "det_relative_spread": {"value": float(np.ptp(d) / np.mean(d)), "tolerance": 1e-12},
        }
        F = ricci_potential(g)
        return results, None, {"ricci_potential": F}, 0

    if cmd == "classify":
        return {"classify": classify(g, tol or 1e-8).as_dict()}, None, {}, 0

    if cmd in ("solve-ma2", "solve-ma3"):
        F = spec.build_F(grid)
        if F is None:
            F = ricci_potential(g)
        cfg = SolverConfig(tolerance=tol or 1e-11, max_iterations=args.max_iter)
        init = None
        if args.random_init:
            rng = np.random.default_rng(args.seed)
            init = 1e-3 * rng.standard_normal(grid.shape)
        try:
            if cmd == "solve-ma2":
                sol = solve_ma2(g, F, cfg, initial_phi=init)
            else:
                g0 = spec.build_reference(grid)
                if g0 is None:
                    raise SpecError("solve-ma3 needs a [reference] metric section")
                sol = solve_ma3(g, g0, F, cfg, initial_phi=init)
        except SolverError as exc:
            results = {
                "converged": {"value": False},
                "message": {"value": str(exc)},
                "residual_history": {"values": list(exc.history)},
            }
            rows = _history_rows(exc.history)
            return results, rows, {}, 2
        results = {
            "converged": {"value": True, "tolerance": cfg.tolerance},
            "b": {"value": sol.b},
            "iterations": {"value": sol.iterations},
            "final_residual": {"value": sol.residual_history[-1], "tolerance": cfg.tolerance},
            "output_ricci_max_norm": {"value": ricci_norm(sol.metric_out)},
        }
        rows = (["iteration", "residual", "b", "step"], list(sol.trace))
        return results, rows, {"phi": sol.phi, "F": F}, 0

    if cmd == "flow":
        flow_tol = tol or 1e-6
        dt0 = args.dt or _default_dt(grid)
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
            ["t", "dt", "ricci_norm", "rejected"],
            [(h.t, h.dt, h.ricci_norm, h.rejected) for h in history],
        )
        fields = {
            f"g_{i + 1}{j + 1}": ScalarField(grid, final.g.g[..., i, j])
            for i in range(grid.n)
            for j in range(grid.n)
        }
        return results, rows, fields, 0

    raise ValueError(f"unknown command {cmd}")


def _history_rows(history):
    return ["iteration", "residual"], [(i, r) for i, r in enumerate(history)]


def _default_dt(grid):
    # the explicit RK2 stability limit of the spectral complex Laplacian: a
    # safe first step, which run_flow then grows under its error control
    kmax2 = sum((grid.sizes[a] // 2) ** 2 for a in grid.active_axes)
    return 2.0 / (np.pi**2 * kmax2)


if __name__ == "__main__":
    raise SystemExit(main())
