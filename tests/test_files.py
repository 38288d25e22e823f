"""Definition-file parsing and serialization."""

import pytest

from nccalc.files import (FileFormatError, load_calculus, load_connection,
                          load_metric, load_presentation, serialize_presentation)
from nccalc.presets import load_preset

QPLANE_FILE = """
# the quantum plane with a Z^2 scaling action
[params]
q
p

[generators]
x
y

[relations]
y*x = q^-1 * x*y

[directions]
labels = 1 2
class 1 1 = quadrangle g20
class 1 2 = quadrangle g11
class 2 1 = quadrangle g11
class 2 2 = quadrangle g02

[automorphisms]
1: x -> (p*q)^-1 * x, y -> (p*q)^-1 * y
1 inverse: x -> p*q*x, y -> p*q*y
2: x -> x, y -> (p*q)^-1 * y
2 inverse: x -> x, y -> p*q*y

[weights]
1 = 1
2 = 1

[side_conditions]
p*q != 1
"""

TWISTED_FILE = """
[generators]
x
y

[relations]
y*x = x*y - 1

[directions]
labels = 1 2

[automorphisms]
1: x -> x, y -> y
1 inverse: x -> x, y -> y
2: x -> x, y -> y
2 inverse: x -> x, y -> y

[twists]
1 = -y
2 = x

[two_forms]
basis = 1 2
reduce 1 1 =
reduce 2 2 =
reduce 2 1 = -1 : 1 2
zeta = 1 : 1 2
"""


def test_presentation_file():
    pres = load_presentation(QPLANE_FILE)
    assert pres.parse("y*x") == pres.parse("q^-1 * x*y")


def test_calculus_file_with_derived_two_forms():
    spec = load_calculus(QPLANE_FILE)
    assert spec.mode == "automorphism"
    assert spec.two_forms is not None
    from nccalc.calculus import GradedForm
    t1 = GradedForm.theta(spec, "1")
    assert t1.wedge(t1).is_zero()
    assert spec.side_conditions == ("p*q != 1",)


def test_twisted_calculus_file_with_candidate():
    spec = load_calculus(TWISTED_FILE)
    assert spec.mode == "twisted"
    from nccalc.calculus import GradedForm, vartheta, differential
    x, y = spec.pres.gen("x"), spec.pres.gen("y")
    assert vartheta(spec) == x * differential(spec, y) - y * differential(spec, x)
    assert spec.two_forms.zeta_form() == GradedForm.theta(spec, "1", "2")


def test_bad_two_form_candidate_rejected():
    bad = TWISTED_FILE.replace("zeta = 1 : 1 2", "zeta = 2 : 1 2")
    with pytest.raises(FileFormatError):
        load_calculus(bad)


def test_bad_relation_line():
    with pytest.raises(FileFormatError):
        load_presentation("[generators]\nx\n[relations]\nnonsense")


def test_line_outside_section():
    with pytest.raises(FileFormatError):
        load_presentation("x = y")


def test_connection_and_metric_files():
    spec = load_preset("quantum_plane_a").spec
    conn = load_connection(spec, "V[1,2,1] = 1\nV[2,2,1] = -1\n")
    assert conn.entry("1", "2", "1").is_one()
    g = load_metric(spec, "symmetric\ng[1,2] = x*y\ng[2,1] = x*y\n")
    assert g.entry("1", "2") == spec.pres.parse("x*y")
    with pytest.raises(FileFormatError):
        load_connection(spec, "V[1,2] = 1")
    with pytest.raises(FileFormatError):
        load_metric(spec, "g[1] = 1")


def test_serialize_presentation_round_trip():
    pres = load_preset("glpq2").presentation
    text = serialize_presentation(pres)
    pres2 = load_presentation(text)
    assert pres2.parse("d*a") == pres2.parse("a*d - (p - q^-1)*b*c")
    assert [g.name for g in pres2.generators] == [g.name for g in pres.generators]


def _serialized_qplane_with(old, new):
    from nccalc.files import serialize_calculus
    text = serialize_calculus(load_preset("quantum_plane_a").spec)
    assert old in text
    return text.replace(old, new, 1)


def _line_of(text, fragment):
    return next(n for n, line in enumerate(text.splitlines(), 1) if fragment in line)


def test_broken_relation_names_section_and_file_line():
    text = _serialized_qplane_with("y*x = (1/(q))*x*y", "y*x = (1/(q))*x*y +")
    with pytest.raises(FileFormatError) as exc:
        load_calculus(text)
    n = _line_of(text, "y*x =")
    assert str(exc.value) == f"[relations] line {n}: unexpected end of input at column 14"


def test_broken_automorphism_image_names_section_and_file_line():
    text = _serialized_qplane_with("2 inverse: x -> x,", "2 inverse: x -> x*(q-q)^-1,")
    with pytest.raises(FileFormatError) as exc:
        load_calculus(text)
    n = _line_of(text, "2 inverse:")
    assert str(exc.value) == f"[automorphisms] line {n}: division by zero"


def test_connection_and_metric_errors_name_the_file_line():
    spec = load_preset("quantum_plane_a").spec
    with pytest.raises(FileFormatError) as exc:
        load_connection(spec, "# V[1,2,1]\nV[1,1,1] = 1\n\nV[1,2,1] = x*\n")
    assert str(exc.value) == "line 4: unexpected end of input at column 3"
    with pytest.raises(FileFormatError) as exc:
        load_metric(spec, "symmetric\ng[1]\n")
    assert str(exc.value) == "line 2: bad metric line: 'g[1]'"


@pytest.mark.parametrize("old, new, message", [
    ("labels = 1 2", "labels 1 2", "[directions] line 13: bad directions line: 'labels 1 2'"),
    ("class 1 2 = quadrangle g1", "class 1 2 = triangle",
     "[directions] line 15: unknown pair class 'triangle'"),
    ("1 = 1", "1 = 1/0", "[weights] line 26: division by zero scalar"),
])
def test_malformed_calculus_lines_are_located(old, new, message):
    with pytest.raises(FileFormatError) as exc:
        load_calculus(_serialized_qplane_with(old, new))
    assert str(exc.value) == message


def test_malformed_two_form_pair_is_located():
    bad = TWISTED_FILE.replace("reduce 2 1 = -1 : 1 2", "reduce 2 1 = -1 : 1")
    with pytest.raises(FileFormatError) as exc:
        load_calculus(bad)
    assert str(exc.value) == "[two_forms] line 26: expected two labels, got '1'"


@pytest.mark.parametrize("text, message", [
    ("[params]\nq q2-\n[generators]\nx", "[params] line 2: invalid parameter name 'q q2-'"),
    ("[generators]\nx\nx", "[generators] line 3: duplicate generator 'x'"),
    ("[params]\nq\n[generators]\nx\nq", "[generators] line 5: generator 'q' is also a parameter"),
])
def test_presentation_errors_are_located(text, message):
    with pytest.raises(FileFormatError) as exc:
        load_presentation(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("old, new, message", [
    ("1 inverse: x -> p*q*x, y -> p*q*y\n", "",
     "[automorphisms] line 22: automorphism 1 has no inverse images"),
    ("1: x -> (p*q)^-1 * x, y -> (p*q)^-1 * y", "1: x -> x + 1, y -> y",
     "[automorphisms] line 22: automorphism 1 violates relations: y*x: (q - 1)/(q)*y; "
     "x (inverse composition): p*q + (p*q - 1)*x; y (inverse composition): (p*q - 1)*y"),
])
def test_automorphism_errors_are_located(old, new, message):
    assert old in QPLANE_FILE
    with pytest.raises(FileFormatError) as exc:
        load_calculus(QPLANE_FILE.replace(old, new))
    assert str(exc.value) == message


def test_automorphism_line_without_a_generator_fixes_it():
    """`2: y -> ...` reads as `2: x -> x, y -> ...`, on both lines of the pair."""
    from nccalc.files import serialize_calculus

    text = QPLANE_FILE.replace("2: x -> x, y", "2: y").replace("2 inverse: x -> x, y",
                                                              "2 inverse: y")
    assert "x -> x" in QPLANE_FILE and "x -> x" not in text
    full, short = load_calculus(QPLANE_FILE), load_calculus(text)
    for m, n in [(short.phi("2"), full.phi("2")), (short.phi_inv("2"), full.phi_inv("2"))]:
        assert {g: str(p) for g, p in m.images.items()} == \
            {g: str(p) for g, p in n.images.items()} == {"x": "x", "y": str(n.images["y"])}
    assert serialize_calculus(short) == serialize_calculus(full)


def test_undeclared_generator_on_a_short_automorphism_line_is_one_located_error(tmp_path):
    """Fixing the generators a line leaves out does not hide a name the
    presentation does not declare."""
    from clirun import run_cli
    calc = tmp_path / "bad.calc"
    calc.write_text(_serialized_with("quantum_plane_a",
                                     "1: x -> (1/(p*q))*x, y -> (1/(p*q))*y\n",
                                     "1: X -> (1/(p*q))*x\n"))
    res = run_cli(["--file", str(calc), "relations"])
    assert (res.exit_code, res.output.splitlines()) == (
        2, ["error: [automorphisms] line 20: undeclared generator 'X'"])


def test_uninvertible_image_is_located():
    text = ("[generators]\nx invertible\n\n[directions]\nlabels = 1\n\n[automorphisms]\n"
            "1: x -> x + 1\n1 inverse: x -> x - 1\n\n[weights]\n1 = 1\n")
    with pytest.raises(FileFormatError) as exc:
        load_calculus(text)
    assert str(exc.value) == "[automorphisms] line 8: cannot compute the image of x^-1 from 1 + x"


def _serialized_glpq2_with(old, new):
    from nccalc.files import serialize_calculus
    text = serialize_calculus(load_preset("glpq2").spec)
    assert old in text
    return text.replace(old, new, 1)


ONE_DIRECTION_FILE = """[generators]
x

[directions]
labels = 1

[automorphisms]
1: x -> x + 1
1 inverse: x -> x - 1

[weights]
1 = 1

[theta_scalings]
1 1 = 0
"""


@pytest.mark.parametrize("text, bad_line, message", [
    (_serialized_glpq2_with("\n1 2 = ", "\n9 2 = "), "9 2 =", "unknown direction 9"),
    (ONE_DIRECTION_FILE, "1 1 = 0", "theta scaling for 1 1 must be nonzero"),
    (_serialized_glpq2_with("\n2 2 = 1/(p*q)", "\n1 2 = 7"), "1 2 = 7", "repeated pair 1 2"),
], ids=["unknown_label", "zero_factor", "repeated_pair"])
def test_bad_theta_scalings_are_located(text, bad_line, message):
    with pytest.raises(FileFormatError) as exc:
        load_calculus(text)
    assert str(exc.value) == f"[theta_scalings] line {_line_of(text, bad_line)}: {message}"


# (preset, old line start, new line start): one label on a [two_forms] line becomes 9
BAD_TWO_FORM_LABELS = [
    ("h_plane_r1", "reduce 2 1 = ", "reduce 9 1 = "),
    ("h_plane_r1", "reduce 2 1 = -1 : 1 2", "reduce 2 1 = -1 : 1 9"),
    ("h_plane_r1", "basis = 1 2", "basis = 1 9"),
    ("h_plane_r1", "delta 1 = ", "delta 9 = "),
    ("h_plane_r1", "delta 1 = p/(h) : 1 2", "delta 1 = p/(h) : 9 2"),
    ("twisted_heisenberg_2", "zeta = 1 : 1 2", "zeta = 1 : 9 2"),
]


@pytest.mark.parametrize("pid, old, new", BAD_TWO_FORM_LABELS,
                         ids=["reduce_key", "reduce_pair", "basis", "delta_key", "delta_pair",
                              "zeta_pair"])
def test_unknown_two_form_label_is_one_located_error(tmp_path, pid, old, new):
    from clirun import run_cli
    text = _serialized_with(pid, "\n" + old, "\n" + new)
    calc = tmp_path / "bad.calc"
    calc.write_text(text)
    res = run_cli(["--file", str(calc), "relations"])
    assert res.exit_code == 2
    assert res.output.splitlines() == [
        f"error: [two_forms] line {_line_of(text, new)}: unknown direction 9"]


# (preset, a [two_forms] line, the line added after it, message): a pair,
# basis or zeta given twice is an error on the second line, equal or not
REPEATED_TWO_FORM_LINES = [
    ("h_plane_r1", "reduce 2 1 = -1 : 1 2", "reduce 2 1 = 5 : 1 2", "repeated pair 2 1"),
    ("h_plane_r1", "reduce 2 1 = -1 : 1 2", "reduce 2 1 = -1 : 1 2", "repeated pair 2 1"),
    ("h_plane_r1", "basis = 1 2", "basis = 1 2", "repeated basis line"),
    ("twisted_heisenberg_2", "zeta = 1 : 1 2", "zeta = 1 : 1 2", "repeated zeta line"),
]


@pytest.mark.parametrize("pid, line, added, message", REPEATED_TWO_FORM_LINES,
                         ids=["reduce_other", "reduce_same", "basis", "zeta"])
def test_repeated_two_form_line_is_one_located_error(tmp_path, pid, line, added, message):
    from clirun import run_cli
    text = _serialized_with(pid, f"\n{line}\n", f"\n{line}\n{added}\n")
    calc = tmp_path / "twice.calc"
    calc.write_text(text)
    res = run_cli(["--file", str(calc), "relations"])
    assert res.exit_code == 2
    assert res.output.splitlines() == [
        f"error: [two_forms] line {_line_of(text, line) + 1}: {message}"]


# (edits of the twisted_heisenberg_3 serialization, the line at fault, message):
# the six table errors of TwoFormStructure, each on the line of its entry
BAD_TWO_FORM_TABLES = [
    ((("\nreduce 2 2 = \n", "\nreduce 2 2 = \nreduce 1 3 =\n"),), "reduce 1 3 =",
     "pair ('1', '3') is both in the basis and reduced"),
    ((("reduce 3 1 = -1 : 1 3", "reduce 3 1 = -1 : 3 2"),), "reduce 3 1 =",
     "reduction of ('3', '1') leaves the basis (('3', '2'))"),
    ((("basis = 1 2 ; 2 1 ; 1 3 ; 2 3", "basis = 1 2 ; 2 1 ; 3 1 ; 2 3"),
      ("reduce 3 1 = -1 : 1 3", "reduce 1 3 = -1 : 3 1")), "reduce 1 3 =",
     "reduction of ('1', '3') must decrease the pair order"),
    ((("\nreduce 3 3 = \n", "\n"),), "basis =", "basis plus reduced pairs must cover S x S"),
    ((("delta 1 = -1 : 1 3", "delta 1 = 1 : 3 1"),), "delta 1 =",
     "Delta(theta^1) must be expressed in the basis"),
    ((("zeta = -1 : 2 1", "zeta = 1 : 1 1"),), "zeta =", "zeta must be expressed in the basis"),
]


@pytest.mark.parametrize("edits, bad_line, message", BAD_TWO_FORM_TABLES,
                         ids=["reduced_basis_pair", "leaves_basis", "order_not_decreasing",
                              "pairs_not_covered", "delta_off_basis", "zeta_off_basis"])
def test_two_form_table_error_is_one_located_line(tmp_path, edits, bad_line, message):
    from clirun import run_cli
    text = _serialized_with("twisted_heisenberg_3", *edits[0])
    for old, new in edits[1:]:
        assert old in text
        text = text.replace(old, new, 1)
    calc = tmp_path / "bad.calc"
    calc.write_text(text)
    res = run_cli(["--file", str(calc), "relations"])
    assert (res.exit_code, res.output.splitlines()) == (
        2, [f"error: [two_forms] line {_line_of(text, bad_line)}: {message}"])


# (preset, old text, new text, the one error line of `relations` on the result)
MALFORMED_FILES = [
    ("quantum_plane_a", "\n1 = 1\n", "\n1 = zz\n",
     "error: [weights] line 26: unknown parameter 'zz'"),
    ("quantum_plane_a", "\nx\n", "\nx extra\n",
     "error: [generators] line 6: bad generator line: 'x extra'"),
    ("quantum_plane_a", "[generators]", "[gens]", "error: line 5: unknown section [gens]"),
    ("quantum_plane_a", "[generators]\nx\ny\n\n", "", "error: no [generators] section"),
    ("quantum_plane_a", "class 1 1 =", "klass 1 1 =",
     "error: [directions] line 14: bad directions line: 'klass 1 1 = quadrangle g0'"),
    ("quantum_plane_a", "labels = 1 2\n", "", "error: [directions] needs a labels line"),
    ("quantum_plane_a", "[directions]", "[direction]",
     "error: line 12: unknown section [direction]"),
    ("quantum_plane_a", "[directions]\nlabels = 1 2\nclass 1 1 = quadrangle g0\n"
     "class 1 2 = quadrangle g1\nclass 2 1 = quadrangle g1\nclass 2 2 = quadrangle g2\n\n",
     "", "error: no [directions] section"),
    ("quantum_plane_a", "[side_conditions]", "[bogus]", "error: line 29: unknown section [bogus]"),
    ("glpq2", "[theta_scalings]", "[theta_scaling]",
     "error: line 45: unknown section [theta_scaling]"),
    ("quantum_plane_a", "\n1: x ->", "\n1 x ->",
     "error: [automorphisms] line 20: bad automorphism line: "
     "'1 x -> (1/(p*q))*x, y -> (1/(p*q))*y'"),
    ("quantum_plane_a", ", y -> (1/(p*q))*y\n", ", y (1/(p*q))*y\n",
     "error: [automorphisms] line 20: bad image in: '1: x -> (1/(p*q))*x, y (1/(p*q))*y'"),
    ("quantum_plane_a", "1: x ->", "1: X ->",
     "error: [automorphisms] line 20: undeclared generator 'X'"),
    ("quantum_plane_a", "1 inverse: x ->", "1 inverse: X ->",
     "error: [automorphisms] line 21: undeclared generator 'X'"),
    ("quantum_plane_a", "1: x -> (1/(p*q))*x,", "1: x -> (1/(p*q))*x, x -> x,",
     "error: [automorphisms] line 20: repeated generator x"),
    ("quantum_plane_a", "\n[side_conditions]",
     "\n[theta_scalings]\n1 2 1/(p*q)\n\n[side_conditions]",
     "error: [theta_scalings] line 30: bad theta_scalings line: '1 2 1/(p*q)'"),
    ("h_plane_r1", "reduce 2 1 = -1 : 1 2", "reduce 2 1 = -1 1 2",
     "error: [two_forms] line 34: bad 2-form combination item: '-1 1 2'"),
    ("h_plane_r1", "reduce 2 2 =", "reduced 2 2 =",
     "error: [two_forms] line 35: bad two_forms line: 'reduced 2 2 ='"),
    ("h_plane_r1", "basis = 1 2\n", "", "error: [two_forms] needs a basis line"),
    ("quantum_plane_a", "\n[directions]", "\n[relations]\nx*x = y\n\n[directions]",
     "error: line 12: repeated section [relations]"),
    ("quantum_plane_a", "\n[side_conditions]", "\n[automorphisms]\n\n[side_conditions]",
     "error: line 29: repeated section [automorphisms]"),
    ("quantum_plane_a", "2: x -> x, y -> (1/(p*q))*y\n2 inverse: x -> x, y -> p*q*y\n",
     "2: x -> (1/(p*q))*x, y -> (1/(p*q))*y\n2 inverse: x -> p*q*x, y -> p*q*y\n",
     "error: [automorphisms] line 22: automorphisms for 1 and 2 coincide on generators"),
    ("twisted_heisenberg_2", "\n2 = x\n", "\n2 = -y\n",
     "error: [twists] line 19: directions 1 and 2 carry identical twisted data"),
    ("quantum_plane_a", "\n1 = 1\n", "\n1 = 0\n",
     "error: [weights] line 26: weight t_1 must be nonzero"),
    ("quantum_plane_a", "2: x -> x, y -> (1/(p*q))*y\n2 inverse: x -> x, y -> p*q*y\n", "",
     "error: [directions] line 13: no automorphism for direction 2"),
    ("twisted_heisenberg_2", "\n2 = x\n", "\n",
     "error: [twists] line 18: no twist element for direction 2"),
    ("twisted_heisenberg_2", "\n[twists]", "\n[weights]\n1 = 1\n\n[twists]",
     "error: [twists] line 21: give either weights or twist elements, not both"),
    ("twisted_heisenberg_2", "[twists]\n1 = -y\n2 = x\n",
     "[weights]\n1 = 1\n2 = 1\n\n[twists]\n",
     "error: [twists] line 21: give either weights or twist elements, not both"),
    ("twisted_heisenberg_2", "[twists]\n1 = -y\n2 = x\n", "[twists]\n",
     "error: [twists] line 17: no twist element for direction 1"),
    ("quantum_plane_a", "y*x = (1/(q))*x*y", "x*y = y*x^2",
     "error: [relations] line 10: rule is not order-decreasing: x*y -> y*x^2"),
    ("quantum_plane_a", "y*x = (1/(q))*x*y", "x*y + y = x",
     "error: [relations] line 10: rule left-hand side must be a single word: x*y + y"),
]


@pytest.mark.parametrize("pid, old, new, error", MALFORMED_FILES,
                         ids=["unknown_weight_param", "bad_generator", "misspelled_generators",
                              "no_generators", "bad_directions_line", "no_labels",
                              "misspelled_directions", "no_directions", "unknown_section",
                              "misspelled_theta_scalings", "bad_automorphism_line",
                              "image_without_arrow", "undeclared_image_generator",
                              "undeclared_inverse_generator", "repeated_image_generator",
                              "bad_theta_scalings_line", "bad_combination_item",
                              "bad_two_forms_line", "no_basis", "repeated_relations_section",
                              "repeated_empty_section", "coinciding_automorphisms",
                              "identical_twisted_data", "zero_weight",
                              "direction_without_automorphism", "direction_without_twist",
                              "weights_and_twists", "weights_and_empty_twists",
                              "empty_twists", "relation_not_order_decreasing",
                              "relation_lhs_not_a_word"])
def test_malformed_file_is_one_error_line(tmp_path, pid, old, new, error):
    from clirun import run_cli
    calc = tmp_path / "bad.calc"
    calc.write_text(_serialized_with(pid, old, new))
    res = run_cli(["--file", str(calc), "relations"])
    assert (res.exit_code, res.output.splitlines()) == (2, [error])


def test_scaled_relation_left_hand_side_divides_the_right(tmp_path):
    """`2*y*x = x*y` is the rule y*x -> (1/2)*x*y."""
    from clirun import run_cli
    calc = tmp_path / "scaled.calc"
    calc.write_text(_serialized_with("quantum_plane_a", "y*x = (1/(q))*x*y", "2*y*x = x*y"))
    res = run_cli(["--file", str(calc), "normalize", "y*x"])
    assert (res.exit_code, res.output) == (0, "normal_form = (1/2)*x*y\n")


def test_failing_two_form_candidate_keeps_its_message():
    bad = TWISTED_FILE.replace("zeta = 1 : 1 2", "zeta = 2 : 1 2")
    with pytest.raises(FileFormatError) as exc:
        load_calculus(bad)
    n = _line_of(bad, "[two_forms]")
    assert str(exc.value).startswith(
        f"[two_forms] line {n}: two-form candidate fails verification:\n")


def test_failing_two_form_candidate_names_its_section(tmp_path):
    """The report body follows the located first line; the call exits 2."""
    from clirun import run_cli
    calc = tmp_path / "bad.calc"
    text = _serialized_with("h_plane_r1", "delta 1 = p/(h) : 1 2", "delta 1 = 2*p/(h) : 1 2")
    calc.write_text(text)
    res = run_cli(["--file", str(calc), "relations"])
    assert (res.exit_code, res.output.splitlines()) == (2, [
        f"error: [two_forms] line {_line_of(text, '[two_forms]')}: "
        "two-form candidate fails verification:",
        "twisted 2-form structure",
        "  [pass] generator.y",
        "  [FAIL] generator.x: theta[1]theta[2]: (p^2/(h*t1))*y",
        "  [FAIL] zeta_expansion: theta[1]theta[2]: -p/(h*t1)",
        "  => FAILED (1/3)"])


def test_inconsistent_derived_two_forms_pass_through():
    from nccalc.calculus import InconsistentCalculus
    # (1, 1) declared a biangle although phi_1 phi_1 is not the identity
    text = ONE_DIRECTION_FILE.replace("labels = 1", "labels = 1\nclass 1 1 = biangle")
    text = text.replace("\n[theta_scalings]\n1 1 = 0\n", "")
    with pytest.raises(InconsistentCalculus) as exc:
        load_calculus(text)
    assert str(exc.value).startswith("derived 2-form structure violates the master identity")


def _serialized_with(pid, old, new):
    from nccalc.files import serialize_calculus
    text = serialize_calculus(load_preset(pid).spec)
    assert old in text
    return text.replace(old, new, 1)


# (preset, old text, new text, the bad line, message): every entry of
# [weights], [twists] and [automorphisms] names a direction, once; every
# label of [directions] is new, and a class line names only those labels
BAD_DIRECTION_ENTRIES = [
    ("heisenberg", "\n2 = b\n", "\n9 = b\n", "9 = b", "[weights]", "unknown direction 9"),
    ("heisenberg", "\n2 = b\n", "\n1 = b\n", "1 = b", "[weights]", "repeated direction 1"),
    ("twisted_heisenberg_2", "\n2 = x\n", "\n2 = x\n7 = x*y\n", "7 = x*y", "[twists]",
     "unknown direction 7"),
    ("twisted_heisenberg_2", "\n2 = x\n", "\n2 = x\n2 = y\n", "2 = y", "[twists]",
     "repeated direction 2"),
    ("heisenberg", "\n\n[weights]", "\n7: x -> x, y -> y\n\n[weights]", "7: x -> x, y -> y",
     "[automorphisms]", "unknown direction 7"),
    ("heisenberg", "\n\n[weights]", "\n1: x -> x, y -> y\n\n[weights]", "1: x -> x, y -> y",
     "[automorphisms]", "repeated direction 1"),
    ("heisenberg", "\n\n[weights]", "\n2 inverse: x -> x, y -> y\n\n[weights]",
     "2 inverse: x -> x, y -> y", "[automorphisms]", "repeated direction 2"),
    ("poly_shift_S12", "class 1 1 = triangle 2", "class 1 1 = triangle 9",
     "class 1 1 = triangle 9", "[directions]", "unknown direction 9"),
    ("poly_shift_S12", "class 1 2 = quadrangle g0", "class 1 9 = quadrangle g0",
     "class 1 9 = quadrangle g0", "[directions]", "unknown direction 9"),
    ("poly_shift_S12", "labels = 1 2\n", "labels = 1 2 2\n", "labels = 1 2 2",
     "[directions]", "duplicate direction labels"),
    ("h_plane_r1", "\ndelta 1 = p/(h) : 1 2\n", "\ndelta 1 = p/(h) : 1 2\ndelta 1 = 0 : 1 2\n",
     "delta 1 = 0", "[two_forms]", "repeated direction 1"),
]
BAD_DIRECTION_IDS = ["unknown_weight", "repeated_weight", "unknown_twist", "repeated_twist",
                     "unknown_automorphism", "repeated_automorphism", "repeated_inverse",
                     "unknown_triangle_target", "unknown_class_pair", "duplicate_labels",
                     "repeated_delta"]


@pytest.mark.parametrize("pid, old, new, bad_line, section, message", BAD_DIRECTION_ENTRIES,
                         ids=BAD_DIRECTION_IDS)
def test_entries_for_unknown_or_repeated_directions_are_located(pid, old, new, bad_line,
                                                                section, message):
    text = _serialized_with(pid, old, new)
    with pytest.raises(FileFormatError) as exc:
        load_calculus(text)
    assert str(exc.value) == f"{section} line {_line_of(text, bad_line)}: {message}"


def test_unclassified_pair_is_located_on_the_labels_line():
    text = _serialized_with("poly_shift_S12", "class 2 2 = quadrangle g1\n", "")
    with pytest.raises(FileFormatError) as exc:
        load_calculus(text)
    assert str(exc.value) == (f"[directions] line {_line_of(text, 'labels = 1 2')}: "
                              "pair classification must cover S x S exactly")


def test_pair_classified_twice_is_located_on_the_second_line(tmp_path):
    from clirun import run_cli
    text = _serialized_with("poly_shift_S12", "class 1 2 = quadrangle g0\n",
                            "class 1 2 = quadrangle g0\nclass 1 2 = biangle\n")
    message = f"[directions] line {_line_of(text, 'class 1 2 = biangle')}: repeated pair 1 2"
    with pytest.raises(FileFormatError) as exc:
        load_calculus(text)
    assert str(exc.value) == message
    calc = tmp_path / "twice.calc"
    calc.write_text(text)
    res = run_cli(["--file", str(calc), "verify", "--suite", "inner"])
    assert res.exit_code == 2
    assert res.output.strip() == f"error: {message}"
