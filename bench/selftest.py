"""Self-test of the benchmark's oracles.

    python3 bench/selftest.py

Runs one operation of each workload (seed 0), shows that every oracle
accepts the real output, then feeds it perturbed copies (phi + 1e-4, a
wrong amplitude, a flipped sign, a shifted mean, a reordered history) and
shows that the oracle rejects each.  Exits 1 if any verdict is wrong.
"""

from __future__ import annotations

import copy
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hermweb  # noqa: E402
import hermweb.cli  # noqa: E402,F401
import oracles  # noqa: E402
import workloads  # noqa: E402

verdicts = []


def expect(label, problems, accept):
    ok = (not problems) == accept
    verdicts.append(ok)
    word = "accepts" if not problems else "rejects"
    print(f"{'ok  ' if ok else 'FAIL'} {word} {label}" + ("" if accept or not problems else f": {problems[0]}"))


def flow_cases():
    inp = workloads.Flow.make_inputs(0, None)[0]
    final, history = workloads.Flow.run(hermweb, inp)
    g0, a, j, k = inp["g"], inp["a"], inp["j"], inp["k"]
    g, norms = np.array(final.g.g), [h.ricci_norm for h in history]
    expect("flow: real output", oracles.check_flow(g0, g, a, j, k, norms), True)

    wrong = g.copy()
    a2 = a + 1e-3
    xk = oracles.x_coordinates(g.shape[:-2], 2)[k]
    wrong[..., k, k] = np.sqrt(1 - a2 * a2) / (1 + a2 * np.cos(2 * np.pi * xk))
    expect("flow: limit of a wrong amplitude", oracles.check_flow(g0, wrong, a, j, k, norms), False)
    shifted = g.copy()
    shifted[..., j, j] += 1e-8
    expect("flow: mean of g_jj shifted by 1e-8", oracles.check_flow(g0, shifted, a, j, k, norms), False)
    swapped = norms[:2] + [norms[3], norms[2]] + norms[4:]
    expect("flow: Ricci norms out of order", oracles.check_flow(g0, g, a, j, k, swapped), False)


def ma_cases(W, name):
    rf, man = W.make_inputs(0, None)[:2]
    sol = W.run(hermweb, rf)
    g, phi, g_out = rf["g"], sol.phi.values.real, sol.metric_out.g
    expect(f"{name} Ricci-flat: real output", W.ricci_flat_check(g, phi, g_out), True)
    wave = 1e-4 * np.cos(2 * np.pi * oracles.x_coordinates(phi.shape, 2)[0])
    expect(f"{name} Ricci-flat: phi + 1e-4 cos(2 pi x1)", W.ricci_flat_check(g, phi + wave, g_out), False)
    expect(f"{name} Ricci-flat: phi + 1e-4", W.ricci_flat_check(g, phi + 1e-4, g_out), False)
    bumped = np.array(g_out)
    bumped[(0,) * phi.ndim] *= 1 + 1e-6
    expect(f"{name} Ricci-flat: g_out scaled at one point", W.ricci_flat_check(g, phi, bumped), False)

    sol = W.run(hermweb, man)
    phi, b = sol.phi.values.real, sol.b
    check = oracles.check_ma_manufactured
    expect(f"{name} manufactured: real output", check(phi, b, man["phi"], man["b"], W.tol), True)
    expect(f"{name} manufactured: phi + 1e-4", check(phi + 1e-4, b, man["phi"], man["b"], W.tol), False)
    expect(f"{name} manufactured: b with flipped sign", check(phi, -b, man["phi"], man["b"], W.tol), False)


def inspect_cases():
    workdir = BENCH / "runs" / "selftest"
    inp = workloads.Inspect.make_inputs(0, workdir)[0]
    codes = workloads.Inspect.run(hermweb, inp)
    problems, _ = workloads.Inspect.check(inp, codes)
    expect("inspect: real output (all nine calls)", problems, True)

    outdirs = [Path(d) for d in inp["outdirs"]]
    reports = [oracles.parse_report((d / "report.txt").read_text(encoding="utf-8")) for d in outdirs]
    spec = inp["specs"][0]
    params, sizes = spec["params"], spec["sizes"]
    g = oracles.bump_spec_metric(sizes, 2, params)

    bad = copy.deepcopy(reports[0])
    bad["results"]["bott_chern_defect_max"]["value"] = 1e-6
    expect("ricci: nonzero Bott-Chern defect", oracles.check_ricci_report(bad, g), False)
    wrong_a = dict(params, a=params["a"] + 1e-3)
    expect("classify: residuals of a wrong amplitude", oracles.check_classify_report(reports[1], 2, wrong_a), False)
    F = oracles.read_field(outdirs[2] / "ricci_potential.fld").real
    expect("flatten-conformal: F + 1e-4", oracles.check_flatten_report(reports[2], F + 1e-4, g), False)
    expect("flatten-conformal: -F", oracles.check_flatten_report(reports[2], -F, g), False)

    hopf, nakamura, yoshihara = (copy.deepcopy(r) for r in reports[6:9])
    hopf["results"]["hopf"]["checks"]["semipositive"]["computed"] = -1e-3
    expect("hopf: negative eigenvalue", oracles.check_hopf_report(hopf), False)
    top = nakamura["results"]["nakamura"]["checks"]["undeformed_top_coefficient"]
    top["computed"] = -top["computed"]
    expect("nakamura: top coefficient with flipped sign", oracles.check_nakamura_report(nakamura), False)
    mono = yoshihara["results"]["yoshihara"]["checks"]["monodromy_eigenvalue"]
    mono["computed"] = np.conj(mono["computed"])
    expect("yoshihara: conjugated monodromy eigenvalue", oracles.check_yoshihara_report(yoshihara), False)


def main():
    flow_cases()
    ma_cases(workloads.MA2, "ma2")
    ma_cases(workloads.MA3, "ma3")
    inspect_cases()
    print(f"{sum(verdicts)}/{len(verdicts)} verdicts as expected")
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
