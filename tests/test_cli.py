import re

import pytest

from hermweb.cli import build_parser, main


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


def test_invalid_spec_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.hwspec"
    p.write_text(FLAT.replace("g[1][1] = 1", "g[1][1] = -1"), encoding="utf-8")
    assert main(["classify", "--spec", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_ricci_and_flatten(bump_spec, capsys):
    code, out = run(capsys, "ricci", "--spec", bump_spec)
    assert code == 0
    assert "ricci_max_norm" in out
    assert "bott_chern_defect_max" in out
    code, out = run(capsys, "flatten-conformal", "--spec", bump_spec)
    assert code == 0
    assert "output_ricci_max_norm" in out


def test_solve_ma2_success_and_artifacts(bump_spec, tmp_path, capsys):
    outdir = tmp_path / "out"
    code, out = run(
        capsys, "solve-ma2", "--spec", bump_spec, "--out", str(outdir), "--csv"
    )
    assert code == 0
    assert re.search(r"converged:\n\s+value: true", out)
    assert (outdir / "report.txt").exists()
    assert (outdir / "phi.fld").exists()
    assert (outdir / "F.fld").exists()
    csv_lines = (outdir / "history.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "iteration,residual,b,step"
    assert len(csv_lines) >= 3


def test_solve_ma2_forced_nonconvergence_exits_2(bump_spec, capsys):
    code, out = run(capsys, "solve-ma2", "--spec", bump_spec, "--max-iter", "1")
    assert code == 2
    assert re.search(r"converged:\n\s+value: false", out)
    assert "residual_history" in out


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
        capsys, "flow", "--spec", bump_spec, "--tol", "1e-4", "--out", str(outdir), "--csv"
    )
    assert code == 0
    assert "final_ricci_max_norm" in out
    csv_lines = (outdir / "history.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "t,dt,ricci_norm,rejected"
    assert (outdir / "g_11.fld").exists()


def test_flow_stops_with_exit_2_on_a_non_hermitian_step(tmp_path, capsys):
    # g varies in x1 and x2: the spectral Hessian is not Hermitian at the
    # Nyquist wavenumber, so the flow cannot go on; that is not an input error
    p = tmp_path / "twoaxis.hwspec"
    p.write_text(
        BUMP.replace("sizes = 1 32 1 1", "sizes = 16 16 1 1").replace(
            "g[2][2] = 1", "g[2][2] = 1 + 0.3*cos(2*pi*x1)"
        ),
        encoding="utf-8",
    )
    code, out = run(capsys, "flow", "--spec", str(p), "--grid", "16,16,1,1")
    assert code == 2
    assert re.search(r"converged:\n\s+value: false", out)
    assert "not Hermitian" in out


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


def test_verify_example_commands(capsys):
    code, out = run(capsys, "verify-example", "--name", "yoshihara", "--bound", "1000")
    assert code == 0
    assert "powers_avoid_one" in out
    code, out = run(capsys, "verify-example", "--name", "hopf", "--points", "10")
    assert code == 0
    code, out = run(capsys, "verify-example", "--name", "nakamura", "--t", "0.2,0.1")
    assert code == 0


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
