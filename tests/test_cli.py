import builtins
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import hermweb.cli
import hermweb.flow
import hermweb.forms
import hermweb.grid
import hermweb.ma
import hermweb.metric
import hermweb.smallmat
from hermweb.cli import build_parser, main
from hermweb.metric import bott_chern_defect, chern_ricci, ricci_norm, ricci_tensor
from hermweb.report import load_field, sha256_digest
from hermweb.specfile import loads

from helpers import count_hermitian_from_stack


FLAT = """
[manifold]
name = flat
n = 2
sizes = 16 1 16 1

[metric]
g[1][1] = 1
g[2][2] = 1
"""

BUMP = """
[manifold]
name = bump
n = 2
sizes = 1 32 1 1

[metric]
g[1][1] = 1 + 0.5*cos(2*pi*x2)
g[2][2] = 1
"""


@pytest.fixture
def flat_spec(tmp_path):
    p = tmp_path / "flat.hwspec"
    p.write_text(FLAT, encoding="utf-8")
    return str(p)


@pytest.fixture
def bump_spec(tmp_path):
    p = tmp_path / "bump.hwspec"
    p.write_text(BUMP, encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_flat_all_flags(flat_spec, capsys):
    code, out = run(capsys, "classify", "--spec", flat_spec)
    assert code == 0
    assert out.startswith("hermweb-report")
    for flag in ("kahler", "balanced", "gauduchon", "strongly_gauduchon"):
        assert re.search(rf"{flag}:\n\s+residual: \S+\n\s+flag: true", out)


def test_missing_spec_file_exits_1(capsys):
    assert main(["classify", "--spec", "/no/such/file.hwspec"]) == 1
    assert "error:" in capsys.readouterr().err


def test_spec_that_is_a_directory_exits_1(tmp_path, capsys):
    assert main(["ricci", "--spec", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_that_cannot_be_a_directory_exits_1(bump_spec, tmp_path, capsys, out):
    # mkdir raises FileExistsError on an existing file, NotADirectoryError
    # below one
    (tmp_path / "taken").write_text("", encoding="utf-8")
    assert main(["ricci", "--spec", bump_spec, "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert (tmp_path / "taken").read_text(encoding="utf-8") == ""


def test_invalid_spec_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.hwspec"
    p.write_text(FLAT.replace("g[1][1] = 1", "g[1][1] = -1"), encoding="utf-8")
    assert main(["classify", "--spec", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n", [1, 4])
def test_spec_with_n_out_of_range_exits_1(n, tmp_path, capsys):
    p = tmp_path / "bad.hwspec"
    p.write_text(FLAT.replace("n = 2", f"n = {n}") + "g[3][3] = 1\ng[4][4] = 1\n", encoding="utf-8")
    assert main(["ricci", "--spec", str(p)]) == 1
    assert capsys.readouterr().err.startswith("error: manifold.n: ")


def test_ricci_and_flatten(bump_spec, capsys):
    code, out = run(capsys, "ricci", "--spec", bump_spec)
    assert code == 0
    assert "ricci_max_norm" in out
    assert "bott_chern_defect_max" in out
    code, out = run(capsys, "flatten-conformal", "--spec", bump_spec)
    assert code == 0
    assert "output_ricci_max_norm" in out


TWO_AXIS = """
[manifold]
name = two_axis
n = 2
sizes = 16 16 1 1

[metric]
g[1][1] = 1 + 0.3*cos(2*pi*x2) + 0.1*sin(2*pi*x1)
g[1][2] = 0.1*cos(2*pi*x1) | 0.05*sin(2*pi*x2)
g[2][2] = 1 + 0.2*cos(2*pi*x1)
"""

BUMP3 = """
[manifold]
name = bump3
n = 3
sizes = 8 8 8 1 1 1

[metric]
g[1][1] = 1 + 0.2*cos(2*pi*x2)
g[1][3] = 0.1*cos(2*pi*x3) | 0.1*sin(2*pi*x1)
g[2][2] = 1 + 0.2*sin(2*pi*x3)
g[3][3] = 1 + 0.2*cos(2*pi*x1)
"""


def reported_results(monkeypatch, capsys, argv):
    """The results main renders, before they are formatted to 12 digits."""
    seen = []
    render = hermweb.cli.rpt.render_report
    monkeypatch.setattr(hermweb.cli.rpt, "render_report", lambda out: seen.append(out) or render(out))
    assert main(argv) == 0
    capsys.readouterr()
    return seen[0]


@pytest.mark.parametrize("text", [TWO_AXIS, BUMP3], ids=["n2", "n3"])
def test_ricci_command_equals_the_form_path(text, tmp_path, monkeypatch, capsys):
    # the command reads ricci_norm's stack; Ric as a (1,1)-form, through the
    # complex transforms of the form layer, and its Bott-Chern defect are the
    # oracle, equal up to round-off
    p = tmp_path / "spec.hwspec"
    p.write_text(text, encoding="utf-8")
    results = reported_results(monkeypatch, capsys, ["ricci", "--spec", str(p)])["results"]
    g = loads(text).build_metric()
    ric = chern_ricci(g)
    assert results["ricci_max_norm"]["value"] == ricci_norm(g) > 0.0
    assert results["ricci_max_norm"]["value"] == pytest.approx(ric.max_norm(), rel=1e-13, abs=0.0)
    defect = results["bott_chern_defect_max"]["value"]
    assert defect == pytest.approx(float(np.max(np.abs(bott_chern_defect(ric)))), rel=0.0, abs=1e-12)


def test_ricci_command_and_ricci_norm_read_the_stack(tmp_path, monkeypatch, capsys):
    # no complex Hessian and no complex field of grid size assembled from a stack
    p = tmp_path / "spec.hwspec"
    p.write_text(TWO_AXIS, encoding="utf-8")
    g = loads(TWO_AXIS).build_metric()
    calls = []
    for name in ("hessian_values", "hermitian_from_stack"):
        original = getattr(hermweb.grid if name == "hessian_values" else hermweb.smallmat, name)

        def counting(a, *args, name=name, original=original):
            if name == "hessian_values" or math.prod(a.shape[1:]) == g.grid.num_points:
                calls.append(name)
            return original(a, *args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("hermweb") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    assert main(["ricci", "--spec", str(p)]) == 0
    capsys.readouterr()
    ricci_norm(g)
    assert calls == []
    # the counters see the complex path and the assembled tensor
    chern_ricci(g)
    ricci_tensor(g)
    assert calls == ["hessian_values", "hermitian_from_stack"]


@pytest.mark.parametrize("command", ["ricci", "classify", "flatten-conformal"])
@pytest.mark.parametrize("text", [TWO_AXIS, BUMP3], ids=["two_axis", "bump3"])
def test_spec_commands_assemble_no_complex_metric(command, text, tmp_path, monkeypatch, capsys):
    # the loader builds the metric as its stack, and these commands read the
    # stack alone: no complex (n, n) field is assembled from a stack
    p = tmp_path / "spec.hwspec"
    p.write_text(text, encoding="utf-8")
    calls = count_hermitian_from_stack(monkeypatch)
    loads(text)
    assert calls == []
    assert main([command, "--spec", str(p), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert calls == []


def test_flatten_conformal_computes_the_potential_once(bump_spec, tmp_path, monkeypatch, capsys):
    # conformal_flatten's potential is the one dumped
    calls = []
    original = hermweb.metric.ricci_potential

    def counting(g):
        calls.append(g)
        return original(g)

    for module in (hermweb.metric, hermweb.cli):
        monkeypatch.setattr(module, "ricci_potential", counting)
    out = tmp_path / "out"
    assert main(["flatten-conformal", "--spec", bump_spec, "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    assert (out / "ricci_potential.fld").stat().st_size > 0


def test_ricci_command_builds_no_form(bump_spec, monkeypatch, capsys):
    counts = {"FormField": 0, "exterior_d": 0}
    post_init = hermweb.forms.FormField.__post_init__
    exterior_d = hermweb.forms.exterior_d

    def counting_post_init(self):
        counts["FormField"] += 1
        post_init(self)

    def counting_exterior_d(*args, **kwargs):
        counts["exterior_d"] += 1
        return exterior_d(*args, **kwargs)

    monkeypatch.setattr(hermweb.forms.FormField, "__post_init__", counting_post_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("hermweb") and getattr(module, "exterior_d", None) is exterior_d:
            monkeypatch.setattr(module, "exterior_d", counting_exterior_d)
    assert main(["ricci", "--spec", bump_spec]) == 0
    assert main(["classify", "--spec", bump_spec]) == 0
    assert counts == {"FormField": 0, "exterior_d": 0}
    # the counters see the form path
    hermweb.forms.d_max_norm(loads(Path(bump_spec).read_text(encoding="utf-8")).build_metric().fundamental_form())
    assert counts["FormField"] > 0 and counts["exterior_d"] > 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["ricci"], ["flatten-conformal"], ["classify"], ["solve-ma2"], ["flow", "--tol", "1e-4"]],
    ids=lambda argv: argv[0],
)
def test_spec_is_read_once_and_digested_as_parsed(argv, bump_spec, monkeypatch, capsys):
    digest = sha256_digest(Path(bump_spec).read_bytes())
    opened, parsed = [], []
    real_open, real_loads = builtins.open, hermweb.cli.loads

    def counting_open(file, *args, **kwargs):
        if str(file) == bump_spec:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(hermweb.cli, "loads", lambda text: parsed.append(text) or real_loads(text))
    out = reported_results(monkeypatch, capsys, [argv[0], "--spec", bump_spec] + argv[1:])
    assert len(opened) == 1
    assert out["spec_digest"] == digest == sha256_digest(parsed[0].encode("utf-8"))


def test_solve_ma2_success_and_artifacts(bump_spec, tmp_path, capsys):
    outdir = tmp_path / "out"
    code, out = run(
        capsys, "solve-ma2", "--spec", bump_spec, "--out", str(outdir)
    )
    assert code == 0
    assert re.search(r"converged:\n\s+value: true", out)
    assert (outdir / "report.txt").exists()
    assert (outdir / "phi.fld").exists()
    assert (outdir / "F.fld").exists()
    csv_lines = (outdir / "history.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "iteration,residual,b,step,gmres_iters,gmres_rtol"
    assert len(csv_lines) >= 3
    rows = [line.split(",") for line in csv_lines[1:]]
    gmres_iters = [int(row[4]) for row in rows]
    assert gmres_iters[0] == 0 and all(its >= 1 for its in gmres_iters[1:])
    total = re.search(r"gmres_iterations:\n\s+value: (\d+)", out)
    assert total and int(total.group(1)) == sum(gmres_iters)
    gmres_rtols = [float(row[5]) for row in rows]
    assert gmres_rtols[0] == 0 and all(0 < rtol <= 0.5 for rtol in gmres_rtols[1:])
    backtracks = re.search(r"line_search_backtracks:\n\s+value: (\d+)", out)
    steps = [float(row[3]) for row in rows[1:]]
    assert backtracks and int(backtracks.group(1)) == sum(round(-math.log2(step)) for step in steps)


def test_solve_ma2_forced_nonconvergence_exits_2(bump_spec, capsys):
    code, out = run(capsys, "solve-ma2", "--spec", bump_spec, "--max-iter", "1")
    assert code == 2
    assert re.search(r"converged:\n\s+value: false", out)
    assert "residual_history" in out


@pytest.mark.parametrize(
    "argv, header",
    [(["solve-ma2"], "iteration,residual,b,step,gmres_iters,gmres_rtol"),
     (["solve-ma2", "--max-iter", "1"], "iteration,residual"),
     (["flow", "--tol", "1e-4"], "t,dt,ricci_norm,rejected,reason")],
    ids=["solve", "failed_solve", "flow"],
)
def test_out_writes_the_history_of_every_command_with_rows(bump_spec, argv, header, tmp_path, capsys):
    # --out alone writes history.csv; a failed solve's rows are its residuals
    outdir = tmp_path / "out"
    code, out = run(capsys, *argv, "--spec", bump_spec, "--out", str(outdir))
    assert code == (2 if "--max-iter" in argv else 0)
    assert sorted(f.name for f in outdir.glob("*.csv")) == ["history.csv"]
    first, *rows = (outdir / "history.csv").read_text().strip().splitlines()
    assert first == header and rows
    if "--max-iter" in argv:
        history = re.search(r"residual_history:\n\s+values: \[(.*)\]", out).group(1).split(", ")
        assert rows == [f"{i},{value}" for i, value in enumerate(history)]


def test_solve_ma3_requires_reference(tmp_path, capsys):
    spec3 = """
[manifold]
name = three
n = 3
sizes = 8 8 1 1 1 1

[metric]
g[1][1] = 1
g[2][2] = 1
g[3][3] = 1
"""
    p = tmp_path / "t3.hwspec"
    p.write_text(spec3, encoding="utf-8")
    assert main(["solve-ma3", "--spec", str(p)]) == 1
    err = capsys.readouterr().err
    assert "reference" in err


def test_solve_ma3_with_reference(tmp_path, capsys):
    spec3 = """
[manifold]
name = three
n = 3
sizes = 1 8 1 1 1 1

[metric]
g[1][1] = 1 + 0.1*cos(2*pi*x2)
g[2][2] = 1
g[3][3] = 1

[reference]
g[1][1] = 1
g[2][2] = 1
g[3][3] = 1
"""
    p = tmp_path / "t3ref.hwspec"
    p.write_text(spec3, encoding="utf-8")
    code, out = run(capsys, "solve-ma3", "--spec", str(p))
    assert code == 0
    assert re.search(r"converged:\n\s+value: true", out)


def test_flow_command(bump_spec, tmp_path, capsys):
    outdir = tmp_path / "flowout"
    code, out = run(
        capsys, "flow", "--spec", bump_spec, "--tol", "1e-4", "--out", str(outdir)
    )
    assert code == 0
    assert "final_ricci_max_norm" in out
    csv_lines = (outdir / "history.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "t,dt,ricci_norm,rejected,reason"
    assert (outdir / "g_11.fld").exists()


def test_flow_csv_records_why_attempts_were_rejected(tmp_path, capsys):
    # the two-axis bump's flow from a large first step rejects attempts; a
    # row after rejected attempts carries the reason of the last, as
    # run_flow's history does
    p = tmp_path / "twoaxis.hwspec"
    text = BUMP.replace("sizes = 1 32 1 1", "sizes = 16 16 1 1").replace("0.5", "0.4")
    text = text.replace("g[2][2] = 1", "g[2][2] = 1 + 0.4*cos(2*pi*x1)")
    p.write_text(text, encoding="utf-8")
    outdir = tmp_path / "flowout"
    code, _ = run(capsys, "flow", "--spec", str(p), "--tol", "1e-4", "--dt", "1.5", "--out", str(outdir))
    assert code == 0
    header, *rows = [line.split(",") for line in (outdir / "history.csv").read_text().strip().splitlines()]
    assert header == ["t", "dt", "ricci_norm", "rejected", "reason"]
    _, history = hermweb.flow.run_flow(loads(text).build_metric(), 1e-4, 1.5, 100_000)
    assert [(int(row[3]), row[4]) for row in rows] == [(h.rejected, h.reason) for h in history]
    assert all((row[3] == "0") == (row[4] == "") for row in rows)
    assert {row[4] for row in rows if row[3] != "0"} >= {"step error"}


def test_flow_converges_on_a_two_axis_metric(tmp_path, capsys):
    # g varies in x1 and x2, where the spectral Hessian is not Hermitian at
    # the Nyquist wavenumber; the flow takes its Hermitian part
    p = tmp_path / "twoaxis.hwspec"
    p.write_text(
        BUMP.replace("sizes = 1 32 1 1", "sizes = 16 16 1 1").replace(
            "g[2][2] = 1", "g[2][2] = 1 + 0.3*cos(2*pi*x1)"
        ),
        encoding="utf-8",
    )
    code, out = run(capsys, "flow", "--spec", str(p), "--grid", "16,16,1,1")
    assert code == 0
    assert re.search(r"converged:\n\s+value: true", out)


@pytest.mark.parametrize(
    "option, value",
    [("--dt", "nan"), ("--dt", "inf"), ("--dt", "0"), ("--dt", "-0.001"),
     ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"), ("--tol", "-1")],
)
def test_flow_rejects_a_tol_or_dt_that_is_not_finite_and_positive(bump_spec, option, value, capsys):
    # a NaN or infinite dt never ended the flow, a NaN tol converged at once,
    # and 0 fell back to the default; run_flow rejects each, naming its parameter
    assert main(["flow", "--spec", bump_spec, option, value]) == 1
    name = {"--dt": "dt0", "--tol": "tol"}[option]
    assert f"error: {name} must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value",
    [("--dt", "-1e-3"), ("--tol", "-1e-8"), ("--tol", "abc"), ("--max-steps", "1.5")],
)
def test_flow_usage_errors_exit_1_and_name_the_flag(bump_spec, option, value, capsys):
    # argparse exits 2 on a usage error, the code of a failed solve
    with pytest.raises(SystemExit) as exc_info:
        main(["flow", "--spec", bump_spec, option, value])
    assert exc_info.value.code == 1
    assert f"argument {option}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_flow_rejects_a_step_cap_below_one(bump_spec, value, capsys):
    assert main(["flow", "--spec", bump_spec, "--max-steps", value]) == 1
    assert "error: max_steps must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option",
    [(cmd, opt) for cmd in ("ricci", "flatten-conformal") for opt in ("--tol", "--csv", "--seed")]
    + [("classify", "--csv"), ("classify", "--seed"), ("flow", "--seed"),
       ("verify-example", "--tol"), ("verify-example", "--csv")]
    + [(cmd, "--csv") for cmd in ("solve-ma2", "solve-ma3", "flow")],
)
def test_commands_reject_flags_they_do_not_read(bump_spec, command, option, capsys):
    # no command takes --csv: --out writes history.csv wherever there are rows
    argv = [command] + (["--name", "hopf"] if command == "verify-example" else ["--spec", bump_spec])
    argv += [option] if option == "--csv" else [option, "3"]
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 1
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve-ma2", "classify"])
def test_nan_tol_exits_1(bump_spec, command, capsys):
    # SolverConfig and classify reject it
    assert main([command, "--spec", bump_spec, "--tol", "nan"]) == 1
    assert "error: tolerance must be finite and positive" in capsys.readouterr().err


def test_flow_on_a_one_point_grid_takes_no_step(bump_spec, capsys):
    # a metric on a grid without active axes is constant, so Ricci-flat
    code, out = run(capsys, "flow", "--spec", bump_spec, "--grid", "1,1,1,1")
    assert code == 0
    assert re.search(r"converged:\n\s+value: true", out)
    assert re.search(r"steps:\n\s+value: 0\n", out)


def test_non_finite_metric_expression_exits_1(tmp_path, capsys):
    p = tmp_path / "overflow.hwspec"
    p.write_text(FLAT.replace("g[1][1] = 1", "g[1][1] = 1 + exp(1000)*x1"), encoding="utf-8")
    assert main(["classify", "--spec", str(p)]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_grid_override(bump_spec, capsys):
    code, out = run(capsys, "classify", "--spec", bump_spec, "--grid", "1,16,1,1")
    assert code == 0
    code, _ = run(capsys, "classify", "--spec", bump_spec, "--grid", "1,3,1,1")
    assert code == 1


@pytest.mark.parametrize(
    "grid, message",
    [("8,x,1,1", "error: --grid: invalid literal for int() with base 10: 'x'"),
     ("8,8", "error: --grid: need 4 axis sizes for n=2, got 2"),
     ("1,3,1,1", "error: --grid: active axis 1 size 3 must be even and >= 8")],
)
def test_a_bad_grid_override_names_the_flag(bump_spec, grid, message, capsys):
    assert main(["classify", "--spec", bump_spec, "--grid", grid]) == 1
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("value", ["0.1", "", "0.1,0.2,0.3", "a,b"])
def test_nakamura_t_takes_exactly_re_im(value, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["verify-example", "--name", "nakamura", "--t", value])
    assert exc_info.value.code == 1
    assert f"argument --t: invalid re_im value: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["verify-example", "--name", "hopf"], ["verify-example", "--name", "nakamura"],
     ["solve-ma2", "--random-init"], ["solve-ma3", "--random-init"]],
    ids=["hopf", "nakamura", "ma2", "ma3"],
)
def test_a_negative_seed_is_rejected_by_name(bump_spec, argv, capsys):
    # the function that draws from the seed checks it: hopf_points,
    # nakamura_samples or _random_start
    spec = [] if argv[0] == "verify-example" else ["--spec", bump_spec]
    assert main(argv + spec + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("command", ["solve-ma2", "solve-ma3"])
def test_solver_flags_default_to_the_solver_config(command, monkeypatch, tmp_path, capsys):
    # the CLI reads its defaults from SolverConfig, so the two cannot drift
    p = tmp_path / "spec.hwspec"
    p.write_text(ONE_AXIS3_REF, encoding="utf-8")
    configs = []
    solver = getattr(hermweb.cli, command.replace("-", "_"))
    monkeypatch.setattr(hermweb.cli, command.replace("-", "_"), lambda *a, **kw: configs.append(a[-1]) or solver(*a, **kw))
    assert main([command, "--spec", str(p)]) == 0
    capsys.readouterr()
    assert configs == [hermweb.ma.SolverConfig()]


ONE_AXIS2 = """
[manifold]
name = one_axis2
n = 2
sizes = 8 8 16 8

[metric]
g[1][1] = 1 + 0.4*cos(2*pi*y1) + 0.1*sin(4*pi*y1)
g[1][2] = 0.1 | 0.05*sin(2*pi*y1)
g[2][2] = 1.5
"""

ONE_AXIS3 = """
[manifold]
name = one_axis3
n = 3
sizes = 8 16 8 1 1 1

[metric]
g[1][1] = 1 + 0.3*cos(2*pi*x2)
g[1][3] = 0.1*sin(2*pi*x2) | 0.05
g[2][2] = 1.2
g[3][3] = 1 + 0.2*sin(2*pi*x2)
"""


ONE_AXIS3_REF = ONE_AXIS3 + """
[reference]
g[1][1] = 1
g[2][2] = 1
g[3][3] = 1
"""


def test_spec_fields_are_built_once_per_grid(tmp_path, capsys, monkeypatch):
    # every spec command evaluates each expression of the sections it reads
    # once, on the data grid of the requested grid, and no other section:
    # only solve-ma3 reads [reference], and only the solvers [prescribed]
    import hermweb.specfile

    p = tmp_path / "spec.hwspec"
    p.write_text(ONE_AXIS3_REF + "\n[prescribed]\nF = 0.1*cos(2*pi*x2)\n", encoding="utf-8")
    probed = []
    evaluate = hermweb.specfile._evaluate_periodic

    def probe(ast, grid, path):
        probed.append((path, id(ast), grid.sizes))
        return evaluate(ast, grid, path)

    monkeypatch.setattr(hermweb.specfile, "_evaluate_periodic", probe)
    for argv in (["ricci"], ["classify"], ["flatten-conformal"], ["solve-ma2"], ["solve-ma3"], ["flow", "--tol", "1e-4"]):
        read = ["metric"] * 5
        read += ["reference"] * 3 if argv[0] == "solve-ma3" else []
        read += ["prescribed"] if argv[0].startswith("solve") else []
        for grid, data in (([], (1, 16, 1, 1, 1, 1)), (["--grid", "8,8,8,1,1,1"], (1, 8, 1, 1, 1, 1))):
            probed.clear()
            assert main(argv + ["--spec", str(p)] + grid) == 0
            capsys.readouterr()
            assert sorted(path.split(".")[0] for path, _, _ in probed) == sorted(read)
            assert len({(path, ast) for path, ast, _ in probed}) == len(probed)
            assert {size for _, _, size in probed} == {data}


@pytest.mark.parametrize("command", ["solve-ma2", "flatten-conformal", "flow"])
def test_dumps_are_built_on_the_requested_grid_only_when_written(command, tmp_path, monkeypatch, capsys):
    # a command computes on the data grid; main hands each dump, a data-grid
    # array, to dump_field with the requested grid, once per file it writes
    # under --out, and never without it
    p = tmp_path / "spec.hwspec"
    p.write_text(ONE_AXIS3, encoding="utf-8")
    whole = loads(ONE_AXIS3).build_grid()
    calls = []
    dump = hermweb.cli.rpt.dump_field
    monkeypatch.setattr(
        hermweb.cli.rpt, "dump_field", lambda path, grid, values: calls.append((Path(path), grid)) or dump(path, grid, values)
    )
    argv = [command, "--spec", str(p)] + (["--tol", "1e-4"] if command == "flow" else [])
    assert main(argv) == 0
    assert calls == []
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    written = sorted(out.glob("*.fld"))
    assert sorted(path for path, _ in calls) == written and written
    assert all(grid == whole for _, grid in calls)
    assert all(path.stat().st_size == 32 + 16 * whole.num_points for path in written)


def spy_grids(monkeypatch, name) -> list:
    """The grids of the metrics that hermweb.cli hands to its function name."""
    grids = []
    original = getattr(hermweb.cli, name)
    monkeypatch.setattr(hermweb.cli, name, lambda g, *a, **kw: grids.append(g.grid.sizes) or original(g, *a, **kw))
    return grids


@pytest.mark.parametrize(
    "command, text",
    [("solve-ma2", ONE_AXIS2), ("solve-ma2", ONE_AXIS3_REF), ("solve-ma3", ONE_AXIS3_REF),
     ("flow", ONE_AXIS2), ("flow", ONE_AXIS3_REF)],
    ids=["ma2-n2", "ma2-n3", "ma3", "flow-n2", "flow-n3"],
)
def test_solvers_and_flow_run_on_the_axes_the_spec_reads(command, text, tmp_path, monkeypatch, capsys):
    # each report is that of the library on the spec's whole grid, with the
    # same Newton, GMRES and flow-step counts, and every dump has that grid's
    # shape; values are compared within round-off, which a Ricci norm, a
    # second derivative, amplifies by about (pi N)^2 to 1e-13 on N = 16
    p = tmp_path / "spec.hwspec"
    p.write_text(text, encoding="utf-8")
    spec = loads(text)
    g = spec.build_metric()
    grids = spy_grids(monkeypatch, {"solve-ma2": "solve_ma2", "solve-ma3": "solve_ma3", "flow": "run_flow"}[command])
    out = tmp_path / "out"
    results = reported_results(monkeypatch, capsys, [command, "--spec", str(p), "--out", str(out)])["results"]
    assert grids == [spec.data_grid(g.grid).sizes] and len(g.grid.active_axes) >= 3
    close = lambda want: pytest.approx(want, rel=1e-12, abs=1e-13)
    ricci_close = lambda want: pytest.approx(want, abs=1e-12)

    if command == "flow":
        final, history = hermweb.flow.run_flow(g, 1e-6, hermweb.cli._default_dt(g.grid), 100_000)
        assert results["steps"]["value"] == len(history) - 1 > 10
        assert results["rejected_steps"]["value"] == sum(h.rejected for h in history)
        assert results["final_time"]["value"] == close(final.t)
        assert results["final_ricci_max_norm"]["value"] == ricci_close(final.ricci_norm)
        dumps = {f"g_{i + 1}{j + 1}": final.g.g[..., i, j] for i in range(g.n) for j in range(g.n)}
    else:
        F = hermweb.metric.ricci_potential(g)
        if command == "solve-ma2":
            sol = hermweb.ma.solve_ma2(g, F, hermweb.ma.SolverConfig())
        else:
            sol = hermweb.ma.solve_ma3(g, spec.build_reference(), F, hermweb.ma.SolverConfig())
        assert results["iterations"]["value"] == sol.iterations
        assert results["gmres_iterations"]["value"] == sum(sol.linear_iterations)
        backtracks = sum(round(-math.log2(row[3])) for row in sol.trace[1:])
        assert results["line_search_backtracks"]["value"] == backtracks
        assert results["b"]["value"] == close(sol.b)
        assert results["final_residual"]["value"] == close(sol.residual_history[-1])
        assert results["output_ricci_max_norm"]["value"] == ricci_close(ricci_norm(sol.metric_out))
        dumps = {"phi": sol.phi.values, "F": F.values}
    for name, want in dumps.items():
        f = load_field(out / f"{name}.fld")
        assert f.grid == g.grid
        assert np.max(np.abs(f.values - want)) < 1e-13


@pytest.mark.parametrize(
    "command, text", [("solve-ma2", ONE_AXIS2), ("solve-ma3", ONE_AXIS3_REF)], ids=["ma2", "ma3"]
)
def test_random_init_runs_on_the_axes_the_spec_reads(command, text, tmp_path, monkeypatch, capsys):
    # the random start is noise on the data grid, so a --random-init solve
    # is the library's solve there from _random_start(data, seed), each
    # expression is evaluated once, and the dump has the requested grid
    import hermweb.specfile

    p = tmp_path / "spec.hwspec"
    p.write_text(text, encoding="utf-8")
    spec = loads(text)
    whole = spec.build_grid()
    data = spec.data_grid(whole)
    assert data != whole
    solver = command.replace("-", "_")
    grids = spy_grids(monkeypatch, solver)
    probed = []
    evaluate = hermweb.specfile._evaluate_periodic

    def probe(ast, grid, path):
        probed.append((path, id(ast), grid.sizes))
        return evaluate(ast, grid, path)

    monkeypatch.setattr(hermweb.specfile, "_evaluate_periodic", probe)
    out = tmp_path / "out"
    argv = [command, "--spec", str(p), "--random-init", "--seed", "3", "--out", str(out)]
    results = reported_results(monkeypatch, capsys, argv)["results"]
    assert grids == [data.sizes]
    assert len({(path, ast) for path, ast, _ in probed}) == len(probed) > 0
    assert {size for _, _, size in probed} == {data.sizes}

    g = spec.build_metric(data)
    F = hermweb.metric.ricci_potential(g)
    cfg = hermweb.ma.SolverConfig()
    init = hermweb.cli._random_start(data, 3)
    if command == "solve-ma2":
        sol = hermweb.ma.solve_ma2(g, F, cfg, initial_phi=init)
    else:
        sol = hermweb.ma.solve_ma3(g, spec.build_reference(data), F, cfg, initial_phi=init)
    assert results["iterations"]["value"] == sol.iterations
    assert results["gmres_iterations"]["value"] == sum(sol.linear_iterations)
    assert results["b"]["value"] == sol.b
    phi = load_field(out / "phi.fld")
    assert phi.grid == whole
    assert np.array_equal(phi.values, np.broadcast_to(sol.phi.values, whole.shape))


@pytest.mark.parametrize(
    "command, section, read_sizes",
    [("solve-ma3", "[reference]\ng[1][1] = 1 + 0.1*cos(2*pi*x1)\ng[2][2] = 1\ng[3][3] = 1\n", (8, 16, 1, 1, 1, 1)),
     ("solve-ma2", "[prescribed]\nF = 0.1*sin(2*pi*x3)\n", (1, 16, 8, 1, 1, 1))],
    ids=["reference", "prescribed"],
)
def test_an_axis_that_only_the_reference_or_f_reads_stays_active(command, section, read_sizes, tmp_path, monkeypatch, capsys):
    p = tmp_path / "spec.hwspec"
    p.write_text(ONE_AXIS3 + "\n" + section, encoding="utf-8")
    solver_grids = spy_grids(monkeypatch, command.replace("-", "_"))
    classify_grids = spy_grids(monkeypatch, "classify")
    assert main([command, "--spec", str(p)]) == 0
    assert main(["classify", "--spec", str(p)]) == 0
    capsys.readouterr()
    assert solver_grids == classify_grids == [read_sizes]


@pytest.mark.parametrize(
    "text, read_sizes", [(ONE_AXIS2, (1, 1, 16, 1)), (ONE_AXIS3, (1, 16, 1, 1, 1, 1))], ids=["n2", "n3"]
)
def test_analysis_commands_run_on_the_axes_the_metric_reads(text, read_sizes, tmp_path, monkeypatch, capsys):
    # each report is that of the library on the spec's whole grid, and the
    # dumped potential has that grid's shape; values that are round-off are
    # compared within 1e-13
    p = tmp_path / "spec.hwspec"
    p.write_text(text, encoding="utf-8")
    g = loads(text).build_metric()
    grids = spy_grids(monkeypatch, "classify")
    close = lambda want: pytest.approx(want, rel=1e-12, abs=1e-13)

    results = reported_results(monkeypatch, capsys, ["ricci", "--spec", str(p)])["results"]
    S = hermweb.grid.hermitian_hessian_stack(hermweb.metric.log_det(g), g.grid)
    assert results["ricci_max_norm"]["value"] == close(ricci_norm(g))
    assert ricci_norm(g) > 0.1
    defect = hermweb.smallmat.stack_max_modulus(S.reshape(len(S), -1).mean(axis=1))
    assert results["bott_chern_defect_max"]["value"] == close(defect)

    results = reported_results(monkeypatch, capsys, ["classify", "--spec", str(p)])["results"]
    assert grids == [read_sizes]
    want = hermweb.metric.classify(g, 1e-8).as_dict()
    got = results["classify"]
    for name, entry in want.items():
        if name == "tolerance" or entry["residual"] is None:
            assert got[name] == entry
            continue
        assert got[name]["residual"] == close(entry["residual"])
        assert got[name]["flag"] == entry["flag"]
    assert not want["kahler"]["flag"]

    out = tmp_path / "out"
    results = reported_results(monkeypatch, capsys, ["flatten-conformal", "--spec", str(p), "--out", str(out)])
    results = results["results"]
    flat = hermweb.metric.conformal_flatten(g)
    d = flat.det()
    assert results["output_ricci_max_norm"]["value"] == close(ricci_norm(flat))
    assert results["det_relative_spread"]["value"] == close(float(np.ptp(d) / np.mean(d)))
    F = load_field(out / "ricci_potential.fld")
    assert F.grid == g.grid
    assert np.max(np.abs(F.values - hermweb.metric.ricci_potential(g).values)) < 1e-13


@pytest.mark.parametrize("text", [TWO_AXIS, BUMP3], ids=["two_axis", "bump3"])
def test_a_metric_that_reads_every_active_axis_keeps_its_grid(text, tmp_path, monkeypatch, capsys):
    p = tmp_path / "spec.hwspec"
    p.write_text(text, encoding="utf-8")
    grids = spy_grids(monkeypatch, "classify")
    assert main(["classify", "--spec", str(p)]) == 0
    capsys.readouterr()
    assert grids == [loads(text).sizes]


def test_a_constant_metric_runs_on_no_active_axis(flat_spec, tmp_path, monkeypatch, capsys):
    grids = spy_grids(monkeypatch, "classify")
    results = reported_results(monkeypatch, capsys, ["classify", "--spec", flat_spec])["results"]
    assert grids == [(1, 1, 1, 1)]
    assert all(results["classify"][name] == {"residual": 0.0, "flag": True} for name in ("kahler", "gauduchon"))
    results = reported_results(monkeypatch, capsys, ["ricci", "--spec", flat_spec])["results"]
    assert results["ricci_max_norm"]["value"] == results["bott_chern_defect_max"]["value"] == 0.0
    out = tmp_path / "out"
    assert main(["flatten-conformal", "--spec", flat_spec, "--out", str(out)]) == 0
    capsys.readouterr()
    F = load_field(out / "ricci_potential.fld")
    assert F.grid.sizes == (16, 1, 16, 1)
    assert np.all(F.values == 0.0)


@pytest.mark.parametrize(
    "sizes, read_sizes",
    [("16,8,16,1,1,1", (1, 8, 1, 1, 1, 1)), ("8,1,8,1,1,1", (1, 1, 1, 1, 1, 1))],
    ids=["finer", "read_axis_collapsed"],
)
def test_the_axes_the_metric_reads_are_taken_from_the_grid_override(sizes, read_sizes, tmp_path, monkeypatch, capsys):
    p = tmp_path / "spec.hwspec"
    p.write_text(ONE_AXIS3, encoding="utf-8")
    grids = spy_grids(monkeypatch, "classify")
    assert main(["classify", "--spec", str(p), "--grid", sizes]) == 0
    out = tmp_path / "out"
    assert main(["flatten-conformal", "--spec", str(p), "--grid", sizes, "--out", str(out)]) == 0
    capsys.readouterr()
    assert grids == [read_sizes]
    assert load_field(out / "ricci_potential.fld").grid.sizes == tuple(int(s) for s in sizes.split(","))


def test_verify_example_commands(capsys):
    code, out = run(capsys, "verify-example", "--name", "yoshihara", "--bound", "1000")
    assert code == 0
    assert "powers_avoid_one" in out
    code, out = run(capsys, "verify-example", "--name", "hopf", "--points", "10")
    assert code == 0
    code, out = run(capsys, "verify-example", "--name", "nakamura", "--t", "0.2,0.1")
    assert code == 0


@pytest.mark.parametrize("points", ["0", "-3"])
def test_verify_example_hopf_without_points_exits_1(points, capsys):
    # a check over no points proves nothing, so it must not pass
    assert main(["verify-example", "--name", "hopf", "--points", points]) == 1
    assert "no sample points" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["0", "-3"])
def test_verify_example_nakamura_without_points_exits_1(points, capsys):
    # --points is the sample count here too, not raised to a floor
    assert main(["verify-example", "--name", "nakamura", "--points", points]) == 1
    assert "no samples" in capsys.readouterr().err


def test_reports_are_deterministic(flat_spec, capsys):
    _, out1 = run(capsys, "classify", "--spec", flat_spec)
    _, out2 = run(capsys, "classify", "--spec", flat_spec)
    strip = lambda s: re.sub(r"elapsed_seconds: \S+", "", s)
    assert strip(out1) == strip(out2)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0


def test_parser_is_built_once_and_keeps_fresh_defaults(bump_spec, tmp_path, capsys, monkeypatch):
    import hermweb.cli as cli

    builds = []

    def counting_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["solve-ma2", "--spec", bump_spec, "--out"]
    assert main(argv + [str(first), "--random-init", "--max-iter", "30", "--seed", "3"]) == 0
    assert main(argv + [str(second)]) == 0
    capsys.readouterr()
    assert builds == [1]
    assert (first / "history.csv").exists()
    assert (second / "history.csv").exists()
    args = cli._parser().parse_args(argv + [str(second)])
    assert (args.random_init, args.max_iter, args.seed) == (False, 40, 0)
    cli._parser.cache_clear()


@pytest.mark.parametrize("seed", range(10))
def test_random_init_converges_on_a_fine_grid(bump_spec, seed, capsys):
    # the random start is band-limited, so its Hessian does not grow with N
    code, out = run(capsys, "solve-ma2", "--spec", bump_spec, "--random-init", "--seed", str(seed))
    assert code == 0
    assert re.search(r"converged:\n\s+value: true", out)
