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


def test_uninvertible_image_is_located():
    text = ("[generators]\nx invertible\n\n[directions]\nlabels = 1\n\n[automorphisms]\n"
            "1: x -> x + 1\n1 inverse: x -> x - 1\n\n[weights]\n1 = 1\n")
    with pytest.raises(FileFormatError) as exc:
        load_calculus(text)
    assert str(exc.value) == "[automorphisms] line 8: cannot compute the image of x^-1 from 1 + x"
