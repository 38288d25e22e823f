"""Command-line interface: subcommands, exit codes, output formats."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nccalc
from nccalc.cli import COMMANDS
from nccalc.presets import PRESET_IDS, load_preset

from clirun import run_cli


def invoke(*args):
    return run_cli(args, catch_exceptions=False)


def test_normalize():
    res = invoke("--preset", "quantum_plane_a", "normalize", "y*x")
    assert res.exit_code == 0
    assert "x*y" in res.output


def test_d_z3_cube_is_zero():
    res = invoke("--preset", "z3_root_of_unity", "d", "--expr", "x^3")
    assert res.exit_code == 0
    assert res.output.strip() == "d = 0"


def test_torsion_conditions_output():
    res = invoke("--preset", "quantum_plane_a", "torsion-conditions")
    assert res.exit_code == 0
    assert "V[1,2,1] = V[1,1,2] + 1" in res.output
    assert "V[2,2,1] = V[2,1,2] - 1" in res.output


def test_verify_inner_passes():
    res = invoke("--preset", "quantum_plane_a", "verify", "--suite", "inner")
    assert res.exit_code == 0


def test_verify_all_suites_on_presets():
    for pid in ["heisenberg", "twisted_heisenberg_2", "glpq2"]:
        res = invoke("--preset", pid, "verify", "--samples", "5")
        assert res.exit_code == 0, res.output


def test_unknown_preset_exit_2():
    res = invoke("--preset", "bogus", "normalize", "x")
    assert res.exit_code == 2


def test_parse_error_exit_2():
    res = invoke("--preset", "quantum_plane_a", "normalize", "x +* y")
    assert res.exit_code == 2


def test_trailing_operator_located_exit_2():
    res = run_cli(["--preset", "quantum_plane_a", "normalize", "x +"])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "error: unexpected end of input at column 4" in res.output


@pytest.mark.parametrize("expr", ["x/0", "(1/0)*x", "0^-1*x", "x/(q-q)", "x*(q-q)^-1"])
def test_division_by_zero_exit_2(expr):
    res = invoke("--preset", "quantum_plane_a", "normalize", expr)
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert res.output.strip() == "error: division by zero"


@pytest.mark.parametrize("pid, expr", [("quantum_plane_a", "x/0"),
                                       ("quantum_plane_a", "x/(x*y)"),
                                       ("h_plane", "(x*y)^-1")])
def test_normalize_and_d_share_error_wording(pid, expr):
    norm = run_cli(["--preset", pid, "normalize", expr])
    diff = run_cli(["--preset", pid, "d", "--expr", expr])
    for res in (norm, diff):
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert res.output.startswith("error: ")
    assert norm.output == diff.output


def test_division_by_zero_in_relation_file_exit_2(tmp_path):
    text = invoke("preset", "show", "quantum_plane_a", "--serialize").output
    assert "y*x = (1/(q))*x*y" in text
    calc = tmp_path / "qp.calc"
    calc.write_text(text.replace("y*x = (1/(q))*x*y", "y*x = (1/0)*x*y"))
    res = invoke("--file", str(calc), "normalize", "y*x")
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert res.output.strip() == "error: [relations] line 10: division by zero"


def test_scalar_error_exit_2(monkeypatch):
    from nccalc.algebra import Presentation
    from nccalc.scalar import ZeroDenominator

    def vanishing(self, text):
        raise ZeroDenominator("zero denominator")

    monkeypatch.setattr(Presentation, "parse", vanishing)
    res = invoke("--preset", "quantum_plane_a", "normalize", "x")
    assert res.exit_code == 2
    assert res.output.strip() == "error: zero denominator"


def test_commute():
    res = invoke("--preset", "h_plane", "commute",
                 "--expr", "x", "--thetas", "1")
    assert res.exit_code == 0
    assert "p*y" in res.output.replace(" ", "").replace("(", "").replace(")", "") \
        or "p*y" in res.output


def test_relations_round_trip():
    res = invoke("--preset", "heisenberg", "relations")
    assert res.exit_code == 0
    pres = load_preset("heisenberg").presentation
    for line in res.output.splitlines():
        lhs, rhs = line.split(" = ")
        # the printed coefficient re-parses to an equal canonical value
        coeff = rhs.rsplit("*theta", 1)[0]
        assert pres.parse(coeff) == pres.parse(coeff)


def test_normalize_round_trip():
    pres = load_preset("glpq2").presentation
    res = invoke("--preset", "glpq2", "normalize", "d*a*b^-1")
    assert res.exit_code == 0
    printed = res.output.split("=", 1)[1].strip()
    assert pres.parse(printed) == pres.parse("d*a*b^-1")


def test_two_forms_listing():
    res = invoke("--preset", "poly_shift_S12", "two-forms")
    assert res.exit_code == 0
    assert "Delta(theta[2]) = theta[1]*theta[1]" in res.output


def test_theta_solve():
    res = invoke("--preset", "poly_shift_S12", "theta-solve",
                 "--coords", "x, x^2")
    assert res.exit_code == 0
    assert "det = 2" in res.output
    assert "theta[1] =" in res.output


def test_theta_solve_failure_exit_1():
    res = invoke("--preset", "poly_shift_S12", "theta-solve",
                 "--coords", "x, x")
    assert res.exit_code == 1
    assert "failed" in res.output


def test_torsion_command(tmp_path):
    conn = tmp_path / "conn.txt"
    conn.write_text("V[1,2,1] = 1\nV[2,2,1] = -1\n")
    res = invoke("--preset", "quantum_plane_a", "torsion",
                 "--connection", str(conn))
    assert res.exit_code == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("V[1,2,1] = 5\n")
    res = invoke("--preset", "quantum_plane_a", "torsion",
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
def test_printed_forms_and_tensors_are_pinned(tmp_path, pid, files, args, line):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / a) if a in files else a for a in args]
    res = invoke("--preset", pid, *args)
    assert line in res.output.splitlines()


GL_FORM = "(theta[t12] + e1*theta[t13])"


@pytest.mark.parametrize("pid, expr, code, line", [
    ("quantum_plane_a", "d(x)*y", 0,
     "d = (-p^2*q^2 + 2*p*q - 1)/(p^3*q^3)*x*y*theta[1]*theta[2]"),
    ("twisted_heisenberg_3", "theta[3]*x", 0,
     "d = x*theta[1]*theta[2] + theta[1]*theta[3] + x*theta[2]*theta[1]"),
    ("group_lattice_s3", f"{GL_FORM}^2", 0, None),
    ("quantum_plane_a", "d(theta[1])", 2, "error: d(...) takes an algebra element"),
    ("quantum_plane_a", "theta[1]^0", 2, "error: form powers must be positive"),
    ("quantum_plane_a", "x/theta[1]", 2, "error: cannot divide by a form of positive degree"),
    ("group_lattice_s3", "theta[t1 2]", 2, "error: whitespace in label 't1 2' at column 9"),
    ("quantum_plane_a", "theta[01]", 2, "error: unknown direction 01"),
    ("poly_shift_sym", "theta[-1]*x", 0,
     "d = (-1 + x)*theta[-1]*theta[1] + x*theta[1]*theta[-1]"),
], ids=["d_call", "theta_times_element", "form_power", "d_of_a_form", "zero_form_power",
        "divide_by_a_form", "label_with_whitespace", "label_read_exactly", "negative_label"])
def test_form_syntax_is_pinned(pid, expr, code, line):
    if line is None:  # a power of a form prints as the explicit product
        line = invoke("--preset", pid, "d", "--expr", f"{GL_FORM}*{GL_FORM}").output.strip()
        assert line != "d = 0"
    res = run_cli(["--preset", pid, "d", "--expr", expr])
    assert (res.exit_code, res.output.splitlines()) == (code, [line])


@pytest.mark.parametrize("args", [
    ["--preset", "quantum_plane_a", "normalize", "x^99999999999"],
    ["--preset", "quantum_plane_a", "d", "--expr", "theta[1]^5000"],
])
def test_huge_exponent_exit_2(args):
    res = run_cli(args)
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.strip().startswith("error: exponent ")


def test_huge_exponent_in_weights_file_exit_2(tmp_path):
    text = invoke("preset", "show", "quantum_plane_a", "--serialize").output
    lines = text.splitlines()
    n = lines.index("[weights]") + 2
    assert lines[n - 1] == "1 = 1"
    calc = tmp_path / "qp.calc"
    calc.write_text(text.replace("[weights]\n1 = 1", "[weights]\n1 = q^-99999999999"))
    res = run_cli(["--file", str(calc), "normalize", "x"])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.strip() == (f"error: [weights] line {n}: exponent -99999999999 exceeds "
                                  "1000 in absolute value at column 3")


def test_curvature_command(tmp_path):
    conn = tmp_path / "conn.txt"
    conn.write_text("")  # V = 0
    res = invoke("--preset", "quantum_plane_a", "curvature",
                 "--connection", str(conn), "--theta", "1")
    assert res.exit_code == 0
    assert "R(theta[1]) = 0" in res.output


def test_metric_check_and_levi_civita(tmp_path):
    metric = tmp_path / "g.txt"
    metric.write_text("g[1,2] = 1\ng[2,1] = 1\n")
    conn = tmp_path / "v.txt"
    conn.write_text("V[1,1,2] = -1\nV[2,1,1] = -1\nV[1,2,2] = -1\nV[2,2,1] = -1\n")
    res = invoke("--preset", "quantum_plane_a", "metric-check",
                 "--metric", str(metric), "--connection", str(conn))
    assert res.exit_code == 0, res.output
    res = invoke("--preset", "quantum_plane_a", "levi-civita",
                 "--metric", str(metric), "--connection", str(conn))
    assert res.exit_code == 0, res.output


@pytest.mark.xfail(strict=True, reason=(
    "metric invariance takes phi_s(theta^u) as a multiple of theta^u, but on "
    "group_lattice_s3 phi_t12 maps theta^t23 to theta^t13; the fix waits for "
    "S3 metrics in the cli benchmark workload that are constant on sigma-orbits"))
def test_metric_check_fails_a_metric_that_phi_s_moves(tmp_path):
    """phi_t12(g) = theta^t12 (x) theta^t13 + theta^t13 (x) theta^t12 != g."""
    metric = tmp_path / "g.txt"
    metric.write_text("g[t12,t23] = 1\ng[t23,t12] = 1\n")
    res = invoke("--preset", "group_lattice_s3", "metric-check", "--metric", str(metric))
    assert res.exit_code == 1, res.output


def test_preset_list_show_run():
    res = invoke("preset", "list")
    assert res.exit_code == 0
    assert "quantum_plane_a" in res.output
    res = invoke("preset", "show", "heisenberg")
    assert res.exit_code == 0
    assert "fixtures:" in res.output
    res = invoke("preset", "run", "poly_shift_sym")
    assert res.exit_code == 0


def test_preset_show_serialized_reloads(tmp_path):
    res = invoke("preset", "show", "quantum_plane_a", "--serialize")
    assert res.exit_code == 0
    calc = tmp_path / "qp.calc"
    calc.write_text(res.output)
    res = invoke("--file", str(calc), "normalize", "y*x")
    assert res.exit_code == 0
    assert "x*y" in res.output


def test_structured_format_stable():
    r1 = invoke("--preset", "heisenberg", "--format", "structured",
                "verify", "--suite", "inner")
    r2 = invoke("--preset", "heisenberg", "--format", "structured",
                "verify", "--suite", "inner")
    assert r1.exit_code == 0 and r1.output == r2.output
    assert all(" = " in line for line in r1.output.splitlines() if line)


def test_verify_all_presets_deterministic_and_parallel():
    args = ["verify", "--suite", "inner", "--suite", "twisted-2forms", "--all-presets"]
    seq = invoke("--format", "structured", *args)
    par = invoke("--format", "structured", "--jobs", "4", *args)
    assert seq.exit_code == 0
    assert seq.output == par.output


def test_verify_text_independent_of_hash_seed():
    src = str(Path(nccalc.__file__).resolve().parent.parent)
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "nccalc.cli", "--preset", "group_lattice_s3",
                               "verify", "--suite", "twisted-2forms"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert "zeta_centrality" in outs[0]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("module", ["concurrent.futures", "fractions", "decimal"])
def test_cli_import_leaves_thread_pool_unloaded(module):
    """No call needs concurrent.futures, which loads logging; a Scalar holds
    ints, so a light call needs neither fractions nor the decimal module that
    fractions imports."""
    src = str(Path(nccalc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, nccalc.cli; nccalc.cli.main(['--preset', 'glpq2', 'normalize', 'a']); "
            f"print({module!r} in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["normal_form = a", "False"]


def test_cli_call_imports_only_the_standard_library():
    """A call imports no third-party module, even one that is installed: nccalc
    needs a bare Python, and each import is paid by every cold call."""
    src = str(Path(nccalc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; before = set(sys.modules); import nccalc.cli; "
            "nccalc.cli.main(['--preset', 'glpq2', 'normalize', 'a']); "
            "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'nccalc'}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["normal_form = a", "[]"]


@pytest.mark.parametrize("args, line", [
    (["d", "--expr", "-x"], "d = (p*q - 1)/(p*q)*x*theta[1]"),
    (["commute", "--expr", "-x", "--thetas", "1"], "moved = (-1/(p*q))*x*theta[1]"),
    (["normalize", "--", "-x"], "normal_form = -x"),
], ids=["d", "commute", "normalize"])
def test_option_value_may_start_with_a_dash(args, line):
    res = invoke("--preset", "quantum_plane_a", *args)
    assert (res.exit_code, res.output) == (0, f"{line}\n")


def test_jobs_below_one_means_one():
    args = ["--format", "structured", "preset", "run", "poly_shift_sym"]
    assert invoke("--jobs", "-1", *args) == invoke("--jobs", "1", *args)


@pytest.mark.parametrize("args, fragment", [
    ([], "COMMAND"),
    (["--preset", "glpq2"], "COMMAND"),
    (["bogus"], "bogus"),
    (["--preset", "glpq2", "preset", "bogus"], "bogus"),
    (["--bogus", "--preset", "glpq2", "normalize", "a"], "--bogus"),
    (["--preset", "glpq2", "normalize", "a", "--bogus"], "--bogus"),
    (["--preset", "glpq2", "d"], "--expr"),
    (["--preset", "glpq2", "normalize"], "expr"),
    (["--format", "xml", "--preset", "glpq2", "normalize", "a"], "--format"),
    (["--preset", "glpq2", "verify", "--suite", "nope"], "--suite"),
    (["--jobs", "x", "--preset", "glpq2", "normalize", "a"], "--jobs"),
    (["--preset", "glpq2", "verify", "--samples", "x"], "--samples"),
    (["--preset", "glpq2", "verify", "--samples", "0"], "--samples"),
    (["--preset", "glpq2", "verify", "--samples", "-3"], "--samples"),
    (["--preset", "glpq2", "--file", "x.calc", "normalize", "a"],
     "give either --preset or --file, not both"),
    (["normalize", "a"], "no calculus loaded; use --preset or --file"),
], ids=["no_arguments", "no_command", "unknown_command", "unknown_subcommand",
        "unknown_option", "unknown_command_option", "missing_option", "missing_argument",
        "bad_format", "bad_suite", "bad_jobs", "bad_samples", "zero_samples",
        "negative_samples", "preset_and_file", "no_calculus"])
def test_usage_error_is_one_error_line_exit_2(args, fragment):
    res = run_cli(args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and len(res.output.splitlines()) == 1
    assert fragment in res.output


HELP_CALLS = [["--help"], *([name, "--help"] for name in COMMANDS),
              *(["preset", name, "--help"] for name in COMMANDS["preset"].commands)]


@pytest.mark.parametrize("args", HELP_CALLS, ids=" ".join)
def test_help_does_not_depend_on_the_terminal_width(monkeypatch, args):
    outs = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        res = invoke(*args)
        assert res.exit_code == 0 and res.output.startswith("usage: nccalc")
        outs.append(res.output)
    assert outs[0] == outs[1]


def test_suite_named_twice_runs_once():
    args = ["--preset", "heisenberg", "--format", "structured", "verify"]
    once = invoke(*args, "--suite", "inner")
    twice = invoke(*args, "--suite", "inner", "--suite", "inner")
    assert once.exit_code == twice.exit_code == 0
    assert "verify.inner." in once.output
    assert twice.output == once.output


def test_jobs_preset_run_deterministic():
    for pid in ("quantum_plane_b", "heisenberg"):
        seq = invoke("--format", "structured", "--jobs", "1", "preset", "run", pid)
        par = invoke("--format", "structured", "--jobs", "3", "preset", "run", pid)
        assert seq.exit_code == 0 and par.exit_code == 0
        assert f"preset.{pid}.fixture_00." in seq.output
        assert seq.output == par.output


def test_file_session_missing_exit_2():
    res = invoke("--file", "/nonexistent/path.calc", "normalize", "x")
    assert res.exit_code == 2


def test_nonconfluent_file_exit_3(tmp_path):
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
    res = invoke("--file", str(calc), "normalize", "y*x")
    assert res.exit_code == 3
    # overlaps of 6 and 7 letters: every critical pair is checked, however long
    calc.write_text("""
[generators]
x
y

[relations]
y*y*y*x = 0
x*y*x*x = y^2

[directions]
labels = 1

[automorphisms]
1: x -> x, y -> y
1 inverse: x -> x, y -> y

[weights]
1 = 1
""")
    res = run_cli(["--file", str(calc), "normalize", "(y^3*x)*(y*x^2)"])
    assert res.exit_code == 3
    assert res.output.splitlines() == ["error: 2 critical pair(s) fail to join:",
                                       "  y^3*x*y*x^2: 0  !=  y^5",
                                       "  x*y*x^2*y*x^2: 0  !=  x*y*x*y^2"]


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_serialized_preset_verifies_like_the_preset(tmp_path, pid):
    """A definition file carries the whole calculus: `verify` reads nothing else."""
    calc = tmp_path / f"{pid}.calc"
    calc.write_text(invoke("preset", "show", pid, "--serialize").output)
    for fmt in ("text", "structured"):
        by_preset = run_cli(["--format", fmt, "--preset", pid, "verify"])
        by_file = run_cli(["--format", fmt, "--file", str(calc), "verify"])
        assert by_preset.exit_code == 0, by_preset.output
        assert (by_file.exit_code, by_file.output) == (by_preset.exit_code, by_preset.output)


_DEEP = "(" * 200 + "x" + ")" * 200


@pytest.mark.parametrize("args, error", [
    (["normalize", "x $ y"], "error: unexpected character '$' at column 3 in 'x $ y'"),
    (["normalize", "x y"], "error: trailing input: token 'y' at column 3"),
    (["d", "--expr", "theta[]"], "error: empty index"),
    (["normalize", _DEEP], "error: parentheses nested deeper than 100 at column 101"),
    (["d", "--expr", "d" + _DEEP], "error: parentheses nested deeper than 100 at column 102"),
], ids=["bad_character", "trailing_input", "empty_index", "deep_parentheses",
        "deep_call_parentheses"])
def test_malformed_expression_is_one_error_line(args, error):
    res = run_cli(["--preset", "quantum_plane_a", *args])
    assert (res.exit_code, res.output.splitlines()) == (2, [error])


def test_long_run_of_unary_minus_negates_once():
    for n, nf in [(1500, "x"), (1501, "-x")]:
        res = run_cli(["--preset", "quantum_plane_a", "normalize", "--", "-" * n + "x"])
        assert (res.exit_code, res.output) == (0, f"normal_form = {nf}\n")


def test_failing_check_detail_in_structured_output(tmp_path):
    metric = tmp_path / "F"
    metric.write_text("g[1,1] = x\n")
    res = run_cli(["--format", "structured", "--preset", "quantum_plane_a",
                   "metric-check", "--metric", str(metric)])
    assert res.exit_code == 1
    assert res.output.splitlines() == [
        "metric.invariance.phi_1.g[1,1].scale_1 = fail",
        "metric.invariance.phi_1.g[1,1].scale_1.detail = "
        "phi_1(g[1,1]) = (1/(p*q))*x, required 1 * g = x",
        "metric.invariance.phi_2.g[1,1].scale_1 = pass",
        "metric.ok = fail"]


@pytest.mark.parametrize("args", [
    ["--file", "{dir}", "normalize", "x"],
    ["--preset", "quantum_plane_a", "torsion", "--connection", "{dir}"],
    ["--preset", "quantum_plane_a", "metric-check", "--metric", "{dir}"],
])
def test_directory_for_a_file_exit_2(tmp_path, args):
    res = run_cli([a.format(dir=tmp_path) for a in args])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and len(res.output.splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["--file", "{path}", "normalize", "x"],
    ["--preset", "quantum_plane_a", "torsion", "--connection", "{path}"],
    ["--preset", "quantum_plane_a", "metric-check", "--metric", "{path}"],
])
def test_file_that_is_not_utf8_is_one_error_line(tmp_path, args):
    path = tmp_path / "latin1.txt"
    path.write_bytes("g[1,2] = x # café\n".encode("latin-1"))
    res = run_cli([a.format(path=path) for a in args])
    assert (res.exit_code, res.output.splitlines()) == (
        2, [f"error: {path}: not UTF-8 text (byte offset 16)"])


@pytest.mark.parametrize("args, text", [
    (["--file", "{path}", "normalize", "y*x"], None),
    (["--preset", "quantum_plane_a", "torsion", "--connection", "{path}"],
     "V[1,2,1] = 5\n"),
    (["--preset", "quantum_plane_a", "metric-check", "--metric", "{path}"],
     "g[1,2] = x\ng[2,1] = y\n"),
], ids=["file", "connection", "metric"])
def test_file_with_a_byte_order_mark_reads_as_without(tmp_path, args, text):
    if text is None:
        text = invoke("preset", "show", "quantum_plane_a", "--serialize").output
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    expected = run_cli([a.format(path=plain) for a in args])
    res = run_cli([a.format(path=marked) for a in args])
    assert expected.output.strip() and not expected.output.startswith("error: ")
    assert (res.exit_code, res.output) == (expected.exit_code, expected.output)


@pytest.mark.parametrize("thetas, message", [("zz", "error: unknown direction zz"),
                                             ("1,,2", "error: empty direction label")])
def test_commute_rejects_bad_theta_labels(thetas, message):
    res = run_cli(["--preset", "h_plane", "commute", "--expr", "x",
                               "--thetas", thetas])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output.strip() == message


@pytest.mark.parametrize("bad", ["unknown_label", "zero_factor"])
def test_bad_theta_scalings_exit_2_with_one_error_line(tmp_path, bad):
    text = invoke("preset", "show", "glpq2", "--serialize").output
    if bad == "unknown_label":
        text = text.replace("\n1 2 = ", "\n9 2 = ", 1)
    else:
        text = text.replace("\n1 2 = 1/(p*q)", "\n1 2 = 0", 1)
    calc = tmp_path / "glpq2.calc"
    calc.write_text(text)
    res = run_cli(["--file", str(calc), "normalize", "a"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.splitlines()) == 1
    assert res.output.startswith("error: [theta_scalings] line ")


# every command on a --preset/--file calculus, with its required options
SPEC_COMMANDS = [
    ["normalize", "x"], ["d", "--expr", "x"], ["commute", "--expr", "x", "--thetas", "1"],
    ["relations"], ["two-forms"], ["theta-solve", "--coords", "x,y"],
    ["torsion", "--connection", "c"], ["torsion-conditions"],
    ["curvature", "--connection", "c", "--theta", "1"], ["metric-check", "--metric", "g"],
    ["levi-civita", "--metric", "g", "--connection", "c"],
]


@pytest.mark.parametrize("args", SPEC_COMMANDS, ids=lambda a: a[0])
def test_every_spec_command_reads_file_and_exits_by_the_contract(tmp_path, args):
    res = run_cli(["--file", str(tmp_path)] + args)
    assert (res.exit_code, res.output) == (2, f"error: [Errno 21] Is a directory: '{tmp_path}'\n")
    res = run_cli(["--file", str(tmp_path / "missing.calc")] + args)
    assert res.exit_code == 2
    assert res.output.startswith("error: [Errno 2] No such file or directory")
    assert len(res.output.splitlines()) == 1


def test_spec_commands_cover_every_calculus_command():
    assert {a[0] for a in SPEC_COMMANDS} == set(COMMANDS) - {"verify", "preset"}


@pytest.mark.parametrize("pid, old, new, message", [
    ("heisenberg", "\n2 = b\n", "\n9 = b\n", "[weights] line 28: unknown direction 9"),
    ("heisenberg", "\n2 = b\n", "\n1 = b\n", "[weights] line 28: repeated direction 1"),
    ("twisted_heisenberg_2", "\n2 = x\n", "\n2 = x\n7 = x*y\n",
     "[twists] line 20: unknown direction 7"),
    ("twisted_heisenberg_2", "\n2 = x\n", "\n2 = x\n2 = y\n",
     "[twists] line 20: repeated direction 2"),
    ("heisenberg", "\n\n[weights]", "\n7: x -> x, y -> y\n\n[weights]",
     "[automorphisms] line 25: unknown direction 7"),
    ("heisenberg", "\n\n[weights]", "\n1 inverse: x -> x, y -> y\n\n[weights]",
     "[automorphisms] line 25: repeated direction 1"),
    ("poly_shift_S12", "class 1 1 = triangle 2", "class 1 1 = triangle 9",
     "[directions] line 8: unknown direction 9"),
    ("glpq2", "\n2 2 = 1/(p*q)", "\n1 2 = 7", "[theta_scalings] line 47: repeated pair 1 2"),
    ("poly_shift_S12", "class 1 2 = quadrangle g0", "class 1 9 = quadrangle g0",
     "[directions] line 9: unknown direction 9"),
    ("poly_shift_S12", "labels = 1 2\n", "labels = 1 2 2\n",
     "[directions] line 7: duplicate direction labels"),
], ids=["unknown_weight", "repeated_weight", "unknown_twist", "repeated_twist",
        "unknown_automorphism", "repeated_inverse", "unknown_triangle_target",
        "repeated_theta_scaling", "unknown_class_pair", "duplicate_labels"])
def test_entries_for_unknown_or_repeated_directions_exit_2(tmp_path, pid, old, new,
                                                           message):
    """A weight, twist, automorphism, class pair or triangle target for a
    label outside [directions], or a second direction label, weight, twist,
    automorphism or theta scaling for a label, is one located input error;
    it is not dropped (a serialized heisenberg with `9 = b` printed
    d = b*theta[2] for y)."""
    text = invoke("preset", "show", pid, "--serialize").output
    assert old in text
    calc = tmp_path / f"{pid}.calc"
    calc.write_text(text.replace(old, new, 1))
    res = run_cli(["--file", str(calc), "d", "--expr", "y"])
    assert (res.exit_code, res.output) == (2, f"error: {message}\n")
    assert isinstance(res.exception, SystemExit)


def test_python_dash_m_nccalc_runs_the_command_line():
    """`python -m nccalc` lists the presets and prints what `python -m
    nccalc.cli` prints."""
    from nccalc.presets import PRESET_IDS

    src = str(Path(nccalc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(module, *args):
        proc = subprocess.run([sys.executable, "-m", module, *args],
                              env=env, capture_output=True, text=True, timeout=300)
        return proc.returncode, proc.stdout, proc.stderr

    code, out, err = run("nccalc", "preset", "list")
    assert (code, out.split(), err) == (0, list(PRESET_IDS), "")
    assert len(PRESET_IDS) == 17
    normalize = ("--preset", "heisenberg", "normalize", "y*x")
    result = run("nccalc", *normalize)
    assert result[0] == 0
    assert result == run("nccalc.cli", *normalize)
