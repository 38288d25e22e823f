"""Command-line interface: subcommands, exit codes, output formats."""

import pytest
from click.testing import CliRunner

from nccalc.cli import main
from nccalc.presets import load_preset


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kw):
    return runner.invoke(main, list(args), catch_exceptions=False, **kw)


def test_normalize(runner):
    res = invoke(runner, "--preset", "quantum_plane_a", "normalize", "y*x")
    assert res.exit_code == 0
    assert "x*y" in res.output


def test_d_z3_cube_is_zero(runner):
    res = invoke(runner, "--preset", "z3_root_of_unity", "d", "--expr", "x^3")
    assert res.exit_code == 0
    assert res.output.strip() == "d = 0"


def test_torsion_conditions_output(runner):
    res = invoke(runner, "--preset", "quantum_plane_a", "torsion-conditions")
    assert res.exit_code == 0
    assert "V[1,2,1] = V[1,1,2] + 1" in res.output
    assert "V[2,2,1] = V[2,1,2] - 1" in res.output


def test_verify_inner_passes(runner):
    res = invoke(runner, "--preset", "quantum_plane_a", "verify", "--suite", "inner")
    assert res.exit_code == 0


def test_verify_all_suites_on_presets(runner):
    for pid in ["heisenberg", "twisted_heisenberg_2", "glpq2"]:
        res = invoke(runner, "--preset", pid, "verify", "--samples", "5")
        assert res.exit_code == 0, res.output


def test_unknown_preset_exit_2(runner):
    res = invoke(runner, "--preset", "bogus", "normalize", "x")
    assert res.exit_code == 2


def test_parse_error_exit_2(runner):
    res = invoke(runner, "--preset", "quantum_plane_a", "normalize", "x +* y")
    assert res.exit_code == 2


def test_trailing_operator_located_exit_2(runner):
    res = runner.invoke(main, ["--preset", "quantum_plane_a", "normalize", "x +"])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "error: unexpected end of input at column 4" in res.output


@pytest.mark.parametrize("expr", ["x/0", "(1/0)*x", "0^-1*x", "x/(q-q)", "x*(q-q)^-1"])
def test_division_by_zero_exit_2(runner, expr):
    res = invoke(runner, "--preset", "quantum_plane_a", "normalize", expr)
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert res.output.strip() == "error: division by zero"


def test_division_by_zero_in_relation_file_exit_2(runner, tmp_path):
    text = invoke(runner, "preset", "show", "quantum_plane_a", "--serialize").output
    assert "y*x = (1/(q))*x*y" in text
    calc = tmp_path / "qp.calc"
    calc.write_text(text.replace("y*x = (1/(q))*x*y", "y*x = (1/0)*x*y"))
    res = invoke(runner, "--file", str(calc), "normalize", "y*x")
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert res.output.strip() == "error: [relations] line 10: division by zero"


def test_scalar_error_exit_2(runner, monkeypatch):
    from nccalc.algebra import Presentation
    from nccalc.scalar import ZeroDenominator

    def vanishing(self, text):
        raise ZeroDenominator("zero denominator")

    monkeypatch.setattr(Presentation, "parse", vanishing)
    res = invoke(runner, "--preset", "quantum_plane_a", "normalize", "x")
    assert res.exit_code == 2
    assert res.output.strip() == "error: zero denominator"


def test_commute(runner):
    res = invoke(runner, "--preset", "h_plane", "commute",
                 "--expr", "x", "--thetas", "1")
    assert res.exit_code == 0
    assert "p*y" in res.output.replace(" ", "").replace("(", "").replace(")", "") \
        or "p*y" in res.output


def test_relations_round_trip(runner):
    res = invoke(runner, "--preset", "heisenberg", "relations")
    assert res.exit_code == 0
    pres = load_preset("heisenberg").presentation
    for line in res.output.splitlines():
        lhs, rhs = line.split(" = ")
        # the printed coefficient re-parses to an equal canonical value
        coeff = rhs.rsplit("*theta", 1)[0]
        assert pres.parse(coeff) == pres.parse(coeff)


def test_normalize_round_trip(runner):
    pres = load_preset("glpq2").presentation
    res = invoke(runner, "--preset", "glpq2", "normalize", "d*a*b^-1")
    assert res.exit_code == 0
    printed = res.output.split("=", 1)[1].strip()
    assert pres.parse(printed) == pres.parse("d*a*b^-1")


def test_two_forms_listing(runner):
    res = invoke(runner, "--preset", "poly_shift_S12", "two-forms")
    assert res.exit_code == 0
    assert "Delta(theta[2]) = theta[1]*theta[1]" in res.output


def test_theta_solve(runner):
    res = invoke(runner, "--preset", "poly_shift_S12", "theta-solve",
                 "--coords", "x, x^2")
    assert res.exit_code == 0
    assert "det = 2" in res.output
    assert "theta[1] =" in res.output


def test_theta_solve_failure_exit_1(runner):
    res = invoke(runner, "--preset", "poly_shift_S12", "theta-solve",
                 "--coords", "x, x")
    assert res.exit_code == 1
    assert "failed" in res.output


def test_torsion_command(runner, tmp_path):
    conn = tmp_path / "conn.txt"
    conn.write_text("V[1,2,1] = 1\nV[2,2,1] = -1\n")
    res = invoke(runner, "--preset", "quantum_plane_a", "torsion",
                 "--connection", str(conn))
    assert res.exit_code == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("V[1,2,1] = 5\n")
    res = invoke(runner, "--preset", "quantum_plane_a", "torsion",
                 "--connection", str(bad))
    assert res.exit_code == 1


@pytest.mark.parametrize("pid, files, args, line", [
    ("quantum_plane_a", {"conn": "V[1,2,1] = 5\n"}, ["torsion", "--connection", "conn"],
     "Theta(theta[1]) = (-4)*theta[1]*theta[2]"),
    ("poly_shift_S12", {"conn": "V[1,1,1] = x\nV[1,2,2] = 1\n"},
     ["curvature", "--connection", "conn", "--theta", "1"],
     "R(theta[1]) = (x + x^2) theta[1]*theta[1] (x) theta[1]"
     " + (-1) theta[1]*theta[1] (x) theta[2] + (x) theta[1]*theta[2] (x) theta[2]"),
    ("quantum_plane_a", {"conn": "V[1,2,1] = 5\n", "metric": "g[1,2] = x\ng[2,1] = y\n"},
     ["metric-check", "--metric", "metric", "--connection", "conn"],
     "  [FAIL] compatibility.transport.1: V_1(g) - g"
     " = (-x) theta[1] (x)L theta[2] + (-y) theta[2] (x)L theta[1]"),
])
def test_printed_forms_and_tensors_are_pinned(runner, tmp_path, pid, files, args, line):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / a) if a in files else a for a in args]
    res = invoke(runner, "--preset", pid, *args)
    assert line in res.output.splitlines()


@pytest.mark.parametrize("args", [
    ["--preset", "quantum_plane_a", "normalize", "x^99999999999"],
    ["--preset", "quantum_plane_a", "d", "--expr", "theta[1]^5000"],
])
def test_huge_exponent_exit_2(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.strip().startswith("error: exponent ")


def test_huge_exponent_in_weights_file_exit_2(runner, tmp_path):
    text = invoke(runner, "preset", "show", "quantum_plane_a", "--serialize").output
    lines = text.splitlines()
    n = lines.index("[weights]") + 2
    assert lines[n - 1] == "1 = 1"
    calc = tmp_path / "qp.calc"
    calc.write_text(text.replace("[weights]\n1 = 1", "[weights]\n1 = q^-99999999999"))
    res = runner.invoke(main, ["--file", str(calc), "normalize", "x"])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.strip() == (f"error: [weights] line {n}: exponent -99999999999 exceeds "
                                  "1000 in absolute value at column 3")


def test_curvature_command(runner, tmp_path):
    conn = tmp_path / "conn.txt"
    conn.write_text("")  # V = 0
    res = invoke(runner, "--preset", "quantum_plane_a", "curvature",
                 "--connection", str(conn), "--theta", "1")
    assert res.exit_code == 0
    assert "R(theta[1]) = 0" in res.output


def test_metric_check_and_levi_civita(runner, tmp_path):
    metric = tmp_path / "g.txt"
    metric.write_text("g[1,2] = 1\ng[2,1] = 1\n")
    conn = tmp_path / "v.txt"
    conn.write_text("V[1,1,2] = -1\nV[2,1,1] = -1\nV[1,2,2] = -1\nV[2,2,1] = -1\n")
    res = invoke(runner, "--preset", "quantum_plane_a", "metric-check",
                 "--metric", str(metric), "--connection", str(conn))
    assert res.exit_code == 0, res.output
    res = invoke(runner, "--preset", "quantum_plane_a", "levi-civita",
                 "--metric", str(metric), "--connection", str(conn))
    assert res.exit_code == 0, res.output


def test_preset_list_show_run(runner):
    res = invoke(runner, "preset", "list")
    assert res.exit_code == 0
    assert "quantum_plane_a" in res.output
    res = invoke(runner, "preset", "show", "heisenberg")
    assert res.exit_code == 0
    assert "fixtures:" in res.output
    res = invoke(runner, "preset", "run", "poly_shift_sym")
    assert res.exit_code == 0


def test_preset_show_serialized_reloads(runner, tmp_path):
    res = invoke(runner, "preset", "show", "quantum_plane_a", "--serialize")
    assert res.exit_code == 0
    calc = tmp_path / "qp.calc"
    calc.write_text(res.output)
    res = invoke(runner, "--file", str(calc), "normalize", "y*x")
    assert res.exit_code == 0
    assert "x*y" in res.output


def test_structured_format_stable(runner):
    r1 = invoke(runner, "--preset", "heisenberg", "--format", "structured",
                "verify", "--suite", "inner")
    r2 = invoke(runner, "--preset", "heisenberg", "--format", "structured",
                "verify", "--suite", "inner")
    assert r1.exit_code == 0 and r1.output == r2.output
    assert all(" = " in line for line in r1.output.splitlines() if line)


def test_verify_all_presets_deterministic_and_parallel(runner):
    args = ["verify", "--suite", "inner", "--suite", "twisted-2forms", "--all-presets"]
    seq = invoke(runner, "--format", "structured", *args)
    par = invoke(runner, "--format", "structured", "--jobs", "4", *args)
    assert seq.exit_code == 0
    assert seq.output == par.output


def test_jobs_preset_run_deterministic(runner):
    for pid in ("quantum_plane_b", "heisenberg"):
        seq = invoke(runner, "--format", "structured", "--jobs", "1", "preset", "run", pid)
        par = invoke(runner, "--format", "structured", "--jobs", "3", "preset", "run", pid)
        assert seq.exit_code == 0 and par.exit_code == 0
        assert f"preset.{pid}.fixture_00." in seq.output
        assert seq.output == par.output


def test_env_side_conditions(runner):
    res = invoke(runner, "--preset", "quantum_plane_a", "normalize", "x",
                 env={"NCCALC_SIDE_CONDITIONS": "q != 1; p != 0"})
    assert res.exit_code == 0


def test_file_session_missing_exit_2(runner):
    res = invoke(runner, "--file", "/nonexistent/path.calc", "normalize", "x")
    assert res.exit_code == 2


def test_nonconfluent_file_exit_3(runner, tmp_path):
    calc = tmp_path / "bad.calc"
    calc.write_text("""
[generators]
x
y

[relations]
y*x = x*y
y*x = 2*x*y

[directions]
labels = 1

[automorphisms]
1: x -> 2*x, y -> y
1 inverse: x -> (1/2)*x, y -> y

[weights]
1 = 1
""")
    res = invoke(runner, "--file", str(calc), "normalize", "y*x")
    assert res.exit_code == 3
