"""Operations of the calculus module across the preset examples."""

import itertools
import random

import pytest

from nccalc.algebra import Presentation, _acc, identity_morphism, verify_morphism
from nccalc.calculus import (CalculusError, CalculusSpec, DirectionSet, GradedForm,
                             InconsistentCalculus, TwoFormStructure,
                             central_one_forms_probe, check_differentiability,
                             constants, delta, differential, d_form,
                             graded_commutator, is_central_one_form, move_left,
                             move_right, parse_form, solve_theta_in_differentials,
                             theta_solution_form, two_form_structure, vartheta,
                             verify_inner_identities, verify_twisted_two_forms)
from nccalc.presets import PRESET_IDS, load_preset
from nccalc.scalar import Scalar, params


def spec_of(pid):
    return load_preset(pid).spec


def theta(spec, *labels):
    return GradedForm.theta(spec, *labels)


# -- e_s


def test_e_s_shift_square():
    spec = spec_of("poly_shift_S12")
    x = spec.pres.gen("x")
    assert spec.e("1", x * x) == 2 * x + spec.pres.one


def test_e_s_heisenberg_unit():
    spec = spec_of("heisenberg")
    assert spec.e("1", spec.pres.gen("x")).is_one()


def test_e_s_twisted_heisenberg():
    spec = spec_of("twisted_heisenberg_2")
    assert spec.e("1", spec.pres.gen("x")).is_one()


def test_e_s_twisted_leibniz_random():
    rng = random.Random(1)
    for pid in ["quantum_plane_a", "h_plane", "twisted_heisenberg_3", "z3_root_of_unity"]:
        spec = spec_of(pid)
        from nccalc.suites import random_poly
        for _ in range(20):
            f, g = random_poly(spec.pres, rng), random_poly(spec.pres, rng)
            for s in spec.directions.labels:
                assert spec.e(s, f * g) == \
                    spec.e(s, f) * spec.phi(s).apply(g) + f * spec.e(s, g)


# -- differential


def test_differential_h_plane_closed_form():
    spec = spec_of("h_plane")
    p, t1, r, t2 = params("p t1 r t2")
    x, y = spec.pres.gen("x"), spec.pres.gen("y")
    want = (p / t1) * (theta(spec, "1") * y) + ((1 - r) / t2) * (theta(spec, "2") * x)
    assert differential(spec, x) == want


def test_differential_of_unit_is_zero():
    for pid in ["quantum_plane_a", "twisted_heisenberg_2", "glpq2"]:
        spec = spec_of(pid)
        assert differential(spec, spec.pres.one).is_zero()


def test_differential_z3_cubes_vanish():
    spec = spec_of("z3_root_of_unity")
    x, y = spec.pres.gen("x"), spec.pres.gen("y")
    for f in [x ** 3, y ** 3, x * y, y * x]:
        assert differential(spec, f).is_zero()


# -- move_left / move_right


def test_move_left_h_plane():
    spec = spec_of("h_plane")
    p, = [params("p")]
    x, y = spec.pres.gen("x"), spec.pres.gen("y")
    # f theta^1 = theta^1 f(x - p y, y): moving left applies phi_1
    assert move_left(spec, x, ("1",)) == (x + p * y) * theta(spec, "1")
    assert move_right(spec, ("1",), x) == x - p * y


def test_move_left_unit_unchanged():
    spec = spec_of("quantum_plane_a")
    assert move_left(spec, spec.pres.one, ("1", "2")) == theta(spec, "1", "2")


def test_move_round_trip_random():
    rng = random.Random(4)
    from nccalc.suites import random_poly
    for pid in ["quantum_plane_a", "z3_root_of_unity", "glpq2"]:
        spec = spec_of(pid)
        labels = spec.directions.labels
        for _ in range(25):
            f = random_poly(spec.pres, rng)
            w = tuple(rng.choice(labels) for _ in range(rng.randint(1, 3)))
            assert spec.phi_word_inv(w, spec.phi_word(w, f)) == f


# -- vartheta


def test_vartheta_poly_shift_sym():
    spec = spec_of("poly_shift_sym")
    x = spec.pres.gen("x")
    assert vartheta(spec) == differential(spec, x * x) - (2 * x) * differential(spec, x)
    assert vartheta(spec) == theta(spec, "-1") + theta(spec, "1")


def test_vartheta_glpq2():
    spec = spec_of("glpq2")
    a, d = spec.pres.gen("a"), spec.pres.gen("d")
    want = theta(spec, "1") + a * theta(spec, "2") + d * theta(spec, "3") + theta(spec, "4")
    assert vartheta(spec) == want


def test_vartheta_twisted_heisenberg():
    spec = spec_of("twisted_heisenberg_2")
    x, y = spec.pres.gen("x"), spec.pres.gen("y")
    assert vartheta(spec) == x * differential(spec, y) - y * differential(spec, x)


def test_vartheta_inner_on_generators():
    for pid in ["quantum_plane_a", "h_plane", "heisenberg", "z3_root_of_unity",
                "twisted_heisenberg_3", "glpq2"]:
        spec = spec_of(pid)
        th = vartheta(spec)
        for g in spec.pres.generators:
            f = spec.pres.gen(g.name)
            assert th * f - f * th == differential(spec, f)


def test_derived_values_are_built_once_per_spec():
    from nccalc.calculus import _vartheta
    from nccalc.files import load_calculus, serialize_calculus
    spec = spec_of("quantum_plane_a")
    twin = load_calculus(serialize_calculus(spec))
    specs = (spec, twin, spec_of("glpq2"))
    builds = []

    def build(sp):
        builds.append(sp)
        return len(builds)

    for sp in specs:
        th = vartheta(sp)
        assert vartheta(sp) is th and sp.derived[_vartheta] is th
        assert th.spec is sp and th == _vartheta(sp)
        n = sp.derived[build]
        assert sp.derived[build] == n and builds[n - 1] is sp
    assert [id(sp) for sp in builds] == [id(sp) for sp in specs]
    assert vartheta(twin) is not vartheta(spec)
    assert str(vartheta(twin)) == str(vartheta(spec))


# -- two_form_structure


def test_two_forms_quantum_plane():
    spec = spec_of("quantum_plane_a")
    ts = spec.two_forms
    assert theta(spec, "1").wedge(theta(spec, "1")).is_zero()
    assert theta(spec, "2").wedge(theta(spec, "2")).is_zero()
    assert (theta(spec, "1").wedge(theta(spec, "2"))
            + theta(spec, "2").wedge(theta(spec, "1"))).is_zero()
    assert ts.zeta_form().is_zero()
    assert all(not tab for tab in ts.delta_table.values())


def test_two_forms_shift_S12():
    spec = spec_of("poly_shift_S12")
    assert delta(spec, theta(spec, "1")).is_zero()
    assert delta(spec, theta(spec, "2")) == theta(spec, "1", "1")
    assert theta(spec, "2").wedge(theta(spec, "1")) == -theta(spec, "1", "2")
    assert theta(spec, "2").wedge(theta(spec, "2")).is_zero()
    assert spec.two_forms.zeta_form().is_zero()


def test_two_forms_shift_sym_biangle():
    spec = spec_of("poly_shift_sym")
    assert spec.two_forms.zeta_form() == \
        theta(spec, "-1", "1") + theta(spec, "1", "-1")
    assert delta(spec, theta(spec, "1")).is_zero()
    assert theta(spec, "1").wedge(theta(spec, "1")).is_zero()


def test_two_form_structure_requires_group():
    spec = spec_of("twisted_heisenberg_2")
    with pytest.raises(CalculusError):
        two_form_structure(spec)


def _reduce_word_reference(ts, word):
    """Adjacent pairs reduced left to right to a fixpoint, with no memo."""
    out = {}
    stack = [(tuple(word), Scalar.one())]
    while stack:
        w, c = stack.pop()
        for i in range(len(w) - 1):
            red = ts.reduction.get(w[i:i + 2])
            if red is not None:
                for rc, rp in red:
                    stack.append((w[:i] + rp + w[i + 2:], c * rc))
                break
        else:
            _acc(out, w, c)
    return out


def test_reduce_word_memo_against_unmemoized_reduction():
    specs = [spec_of(pid) for pid in PRESET_IDS]
    specs = [spec for spec in specs if spec.two_forms is not None]
    assert specs
    for spec in specs:
        ts = spec.two_forms
        for n in range(4):
            for w in itertools.product(spec.directions.labels, repeat=n):
                want = _reduce_word_reference(ts, w)
                got = ts.reduce_word(w)
                assert isinstance(got, tuple) and dict(got) == want, (spec.name, w)
                with pytest.raises(TypeError):
                    got[0] = None  # the memoized value is shared; it cannot be changed
                assert dict(ts.reduce_word(w)) == want


def _memo_samples(spec, rng, count=4):
    """Seeded algebra elements; where the presentation has parameters, one
    part is scaled by a parameter, so the memos are used over Q(params)."""
    from nccalc.suites import random_poly
    pres = spec.pres
    for _ in range(count):
        f = random_poly(pres, rng, terms=3)
        if pres.params:
            f = f + pres.const(Scalar.param(rng.choice(pres.params))) * random_poly(pres, rng)
        yield f


def _memo_forms(spec, rng):
    """Seeded 1-forms and 2-forms with a coefficient on every theta-word, so
    one algebra word meets several theta-words."""
    labels = spec.directions.labels
    for degree in (1, 2):
        words = list(itertools.product(labels, repeat=degree))
        for f in _memo_samples(spec, rng, count=3):
            comps = dict(zip(words, _memo_samples(spec, rng, count=len(words))))
            yield GradedForm(spec, comps) + f * theta(spec, *rng.choice(words))


def _cold_memos(spec):
    for memo in spec._e_images.values():
        memo.clear()
    spec._d_images.clear()


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_e_memo_against_unmemoized_e(pid):
    spec = spec_of(pid)
    rng = random.Random(41)
    for f in _memo_samples(spec, rng):
        _cold_memos(spec)
        for memo in ("cold", "warm"):
            for s in spec.directions.labels:
                lam = spec.lambdas[s]
                want = lam * spec.phi(s).apply(f) - f * lam
                assert spec.e(s, f) == want, (memo, s, str(f))


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_d_form_memo_against_unmemoized_d(pid):
    spec = spec_of(pid)
    rng = random.Random(43)
    th = vartheta(spec)
    if spec.two_forms is None:
        with pytest.raises(CalculusError, match="delta needs a two-form structure"):
            d_form(spec, theta(spec, spec.directions.labels[0]))
        return
    for omega in _memo_forms(spec, rng):
        _cold_memos(spec)
        want = graded_commutator(spec, th, omega) - delta(spec, omega)
        for memo in ("cold", "warm"):
            assert d_form(spec, omega) == want, (memo, str(omega))


# -- verify_twisted_two_forms


def test_twisted_two_forms_heisenberg2():
    spec = spec_of("twisted_heisenberg_2")
    rep = verify_twisted_two_forms(spec, spec.two_forms)
    assert rep.ok
    assert spec.two_forms.zeta_form() == theta(spec, "1", "2")


def test_twisted_two_forms_heisenberg3():
    spec = spec_of("twisted_heisenberg_3")
    rep = verify_twisted_two_forms(spec, spec.two_forms)
    assert rep.ok
    assert delta(spec, theta(spec, "3")) == \
        -theta(spec, "1", "2") - theta(spec, "2", "1")
    assert spec.two_forms.zeta_form() == -theta(spec, "2", "1")


def test_twisted_two_forms_wrong_sign_reported():
    pres = Presentation(["x", "y"], rules=[("y*x", "x*y - 1")])
    ident = identity_morphism(pres)
    spec = CalculusSpec(pres, DirectionSet(["1", "2", "3"]),
                        {"1": ident, "2": ident, "3": ident},
                        lambdas={"1": "-y", "2": "x", "3": "y*x"})
    one = Scalar.one()
    wrong = TwoFormStructure(
        spec, basis=[("1", "2"), ("2", "1"), ("1", "3"), ("2", "3")],
        reduction={("1", "1"): [], ("2", "2"): [], ("3", "3"): [],
                   ("3", "1"): [(-one, ("1", "3"))],
                   ("3", "2"): [(-one, ("2", "3"))]},
        delta_table={"1": {("1", "3"): pres.one},  # sign flipped
                     "2": {("2", "3"): pres.one},
                     "3": {("1", "2"): -pres.one, ("2", "1"): -pres.one}},
        zeta={("2", "1"): -pres.one},
    )
    rep = verify_twisted_two_forms(spec, wrong)
    assert not rep.ok
    assert any(c.path == "generator.x" and not c.ok for c in rep.checks)


# the 2-form tables of the twisted Heisenberg calculus with three directions
_ONE = Scalar.one()
_H3_REDUCTION = {("1", "1"): [], ("2", "2"): [], ("3", "3"): [],
                 ("3", "1"): [(-_ONE, ("1", "3"))], ("3", "2"): [(-_ONE, ("2", "3"))]}
_H3_TABLES = dict(basis=[("1", "2"), ("2", "1"), ("1", "3"), ("2", "3")],
                  reduction=_H3_REDUCTION,
                  delta_table={"1": {("1", "3"): -1}, "2": {("2", "3"): 1},
                               "3": {("1", "2"): -1, ("2", "1"): -1}},
                  zeta={("2", "1"): -1})


@pytest.mark.parametrize("defect, message", [
    (dict(reduction={**_H3_REDUCTION, ("1", "3"): []}),
     "pair ('1', '3') is both in the basis and reduced"),
    (dict(reduction={**_H3_REDUCTION, ("3", "1"): [(-_ONE, ("3", "2"))]}),
     "reduction of ('3', '1') leaves the basis (('3', '2'))"),
    (dict(basis=[("1", "2"), ("2", "1"), ("3", "1"), ("2", "3")],
          reduction={**{k: v for k, v in _H3_REDUCTION.items() if k != ("3", "1")},
                     ("1", "3"): [(-_ONE, ("3", "1"))]}),
     "reduction of ('1', '3') must decrease the pair order"),
    (dict(reduction={k: v for k, v in _H3_REDUCTION.items() if k != ("3", "3")}),
     "basis plus reduced pairs must cover S x S"),
    (dict(delta_table={"1": {("3", "1"): 1}}), "Delta(theta^1) must be expressed in the basis"),
    (dict(zeta={("1", "1"): 1}), "zeta must be expressed in the basis"),
])
def test_two_form_table_errors(defect, message):
    """A CalculusSpec given one defective 2-form table is refused with its message."""
    pres = Presentation(["x", "y"], rules=[("y*x", "x*y - 1")])
    ident = identity_morphism(pres)
    args = (pres, DirectionSet(["1", "2", "3"]), {"1": ident, "2": ident, "3": ident})
    lambdas = {"1": "-y", "2": "x", "3": "y*x"}
    assert CalculusSpec(*args, lambdas=lambdas, two_forms=_H3_TABLES).two_forms
    with pytest.raises(CalculusError) as exc:
        CalculusSpec(*args, lambdas=lambdas, two_forms={**_H3_TABLES, **defect})
    assert str(exc.value) == message


@pytest.mark.parametrize("pid, delta_ints, zeta_ints", [
    ("twisted_heisenberg_3", {"1": {("1", "3"): -1}, "2": {("2", "3"): 1},
                              "3": {("1", "2"): -1, ("2", "1"): -1}}, {("2", "1"): -1}),
    ("z3_root_of_unity", None, None),
    ("h_plane_r1", None, None),
])
def test_two_form_tables_read_ints_and_text_as_elements(pid, delta_ints, zeta_ints):
    """Delta and zeta entries go through Presentation.element: an int or a
    text entry gives the structure that the NCPoly entry gives."""
    spec = spec_of(pid)
    ts = spec.two_forms
    delta_polys = {s: {p: spec.pres.parse(str(v)) for p, v in tab.items()}
                   for s, tab in ts.delta_table.items()}
    zeta_polys = {p: spec.pres.parse(str(v)) for p, v in ts.zeta.items()}
    want = TwoFormStructure(spec, ts.basis, ts.reduction, delta_polys, zeta_polys)
    as_text = TwoFormStructure(spec, ts.basis, ts.reduction,
                               {s: {p: str(v) for p, v in tab.items()}
                                for s, tab in delta_polys.items()},
                               {p: str(v) for p, v in zeta_polys.items()})
    tables = [as_text]
    if delta_ints is not None:
        tables.append(TwoFormStructure(spec, ts.basis, ts.reduction, delta_ints, zeta_ints))
    for got in tables:
        assert (got.delta_table, got.zeta) == (want.delta_table, want.zeta)
        assert got.describe() == want.describe()
        assert verify_twisted_two_forms(spec, got).ok


# -- wedge


def test_wedge_vartheta_squared_quantum_plane():
    spec = spec_of("quantum_plane_a")
    th = vartheta(spec)
    assert th.wedge(th).is_zero()


def test_wedge_unit():
    spec = spec_of("heisenberg")
    assert theta(spec, "1").wedge(GradedForm.from_poly(spec, spec.pres.one)) == \
        theta(spec, "1")


def test_wedge_reduction_shift():
    spec = spec_of("poly_shift_S12")
    assert theta(spec, "2").wedge(theta(spec, "1")) == -theta(spec, "1", "2")


def test_wedge_degree3_order_independent():
    # reduce adjacent pairs in both association orders on random 3-words
    rng = random.Random(8)
    for pid in ["poly_shift_S12", "quantum_plane_a", "poly_shift_sym"]:
        spec = spec_of(pid)
        labels = spec.directions.labels
        for _ in range(30):
            a, b, c = (theta(spec, rng.choice(labels)) for _ in range(3))
            assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


# -- delta and d


def test_delta_vanishes_on_algebra():
    for pid in ["quantum_plane_a", "poly_shift_S12", "twisted_heisenberg_3"]:
        spec = spec_of(pid)
        f = spec.pres.gen(spec.pres.generators[0].name)
        assert delta(spec, GradedForm.from_poly(spec, f)).is_zero()


def test_delta_bimodule_property():
    rng = random.Random(13)
    from nccalc.suites import random_poly
    spec = spec_of("heisenberg")
    for _ in range(20):
        f, g = random_poly(spec.pres, rng), random_poly(spec.pres, rng)
        s = rng.choice(spec.directions.labels)
        om = theta(spec, s)
        lhs = delta(spec, f * om * g)
        rhs = f * delta(spec, om) * g
        assert lhs == rhs


def _delta_by_wedges(spec, omega):
    """sum_i (-1)^i c theta^{w<i} Delta(theta^{w_i}) theta^{w>i} over the terms c theta^w."""
    out = GradedForm.zero(spec)
    for w, c in omega.comps.items():
        for i, s in enumerate(w):
            part = theta(spec, *w[:i]).wedge(spec.two_forms.delta_theta(s)) \
                .wedge(theta(spec, *w[i + 1:]))
            out = out + (c * Scalar.from_int((-1) ** i)) * part
    return out


def _random_forms(spec, rng, count=30):
    """Seeded sums of up to three terms f theta^w, with words of length 1-3."""
    from nccalc.suites import random_poly
    labels = spec.directions.labels
    for _ in range(count):
        omega = GradedForm.zero(spec)
        for _ in range(rng.randint(1, 3)):
            word = [rng.choice(labels) for _ in range(rng.randint(1, 3))]
            omega = omega + random_poly(spec.pres, rng) * theta(spec, *word)
        yield omega


def test_delta_matches_its_wedge_definition_on_every_two_form_preset():
    rng = random.Random(29)
    specs = [spec_of(pid) for pid in PRESET_IDS]
    specs = [spec for spec in specs if spec.two_forms is not None]
    assert len(specs) == 16
    for spec in specs:
        for omega in _random_forms(spec, rng):
            assert delta(spec, omega) == _delta_by_wedges(spec, omega), f"{spec}: {omega}"


def test_delta_moves_algebra_valued_table_entries_past_the_prefix():
    # every preset Delta entry is a scalar, so phi_{w<i} acts on it trivially;
    # this table is not a valid calculus, but both sides are the same sum
    qp = spec_of("quantum_plane_a")
    spec = CalculusSpec(qp.pres, qp.directions, qp.autos, weights=qp.weights)
    ts = spec.two_forms
    x, y = qp.pres.gen("x"), qp.pres.gen("y")
    spec.two_forms = TwoFormStructure(spec, ts.basis, ts.reduction,
                                      {"1": {("1", "2"): x}, "2": {("1", "2"): x * y}},
                                      ts.zeta)
    rng = random.Random(31)
    for omega in _random_forms(spec, rng):
        assert delta(spec, omega) == _delta_by_wedges(spec, omega), str(omega)


def test_delta_graded_leibniz_pair():
    spec = spec_of("poly_shift_S12")
    t1, t2 = theta(spec, "1"), theta(spec, "2")
    lhs = delta(spec, t1.wedge(t2))
    rhs = delta(spec, t1).wedge(t2) - t1.wedge(delta(spec, t2))
    assert lhs == rhs


def test_d_vartheta_minus_square_is_zeta():
    for pid in ["poly_shift_sym", "twisted_heisenberg_2", "twisted_heisenberg_3",
                "z3_root_of_unity"]:
        spec = spec_of(pid)
        th = vartheta(spec)
        assert d_form(spec, th) - th.wedge(th) == spec.two_forms.zeta_form()


def test_d_inner_on_forms_quantum_plane():
    # Delta = 0, so d omega = [vartheta, omega] for any omega
    spec = spec_of("quantum_plane_a")
    rng = random.Random(17)
    from nccalc.suites import random_poly
    th = vartheta(spec)
    for _ in range(10):
        om = random_poly(spec.pres, rng) * theta(spec, rng.choice(("1", "2")))
        assert d_form(spec, om) == graded_commutator(spec, th, om)


def test_d_squared_zero_on_dx():
    spec = spec_of("poly_shift_S12")
    dx = differential(spec, spec.pres.gen("x"))
    assert d_form(spec, dx).is_zero()


# -- inner identities


def test_inner_identities_pass_on_presets():
    for pid in ["quantum_plane_a", "poly_shift_sym", "heisenberg",
                "twisted_heisenberg_3", "h_plane_r1", "z3_root_of_unity"]:
        spec = spec_of(pid)
        rep = verify_inner_identities(spec)
        assert rep.ok, f"{pid}:\n{rep.text()}"


def test_delta_squared_is_zeta_commutator_random():
    rng = random.Random(19)
    from nccalc.suites import random_poly
    spec = spec_of("heisenberg")
    zeta = spec.two_forms.zeta_form()
    for _ in range(15):
        f = random_poly(spec.pres, rng)
        om = f * differential(spec, spec.pres.gen("x"))
        assert (delta(spec, delta(spec, om))
                + graded_commutator(spec, zeta, om)).is_zero()


# -- differentiability


def test_differentiability_quantum_plane_identity_images():
    spec = spec_of("quantum_plane_a")
    for s in spec.directions.labels:
        assert check_differentiability(spec, spec.phi(s)).ok


def test_differentiability_glpq2_scalings():
    spec = spec_of("glpq2")
    p, q = params("p q")
    rinv = (p * q).inverse()
    for s in spec.directions.labels:
        rep = check_differentiability(spec, spec.phi(s), {"2": rinv}, simple=True)
        assert rep.ok, rep.text()


def test_differentiability_wrong_image_reports_violation():
    spec = spec_of("quantum_plane_a")
    images = {"1": GradedForm.theta(spec, "2"), "2": GradedForm.theta(spec, "1")}
    rep = check_differentiability(spec, spec.phi("1"), images)
    assert not rep.ok
    assert any(c.path.startswith("theta_commutation") and not c.ok for c in rep.checks)


# -- centrality and constants


def test_central_one_form_h_plane_r1():
    spec = spec_of("h_plane_r1")
    ok, witness = is_central_one_form(spec, GradedForm.theta(spec, "2"))
    assert ok and witness is None


def test_not_central_quantum_plane():
    spec = spec_of("quantum_plane_a")
    ok, witness = is_central_one_form(spec, GradedForm.theta(spec, "1"))
    assert not ok and witness is not None


def test_zero_form_central():
    spec = spec_of("quantum_plane_a")
    assert is_central_one_form(spec, GradedForm.zero(spec))[0]


def test_central_probe_simple_presets():
    for pid in ["poly_shift_S12", "group_lattice_z3"]:
        spec = spec_of(pid)
        assert not central_one_forms_probe(spec, 2)


def test_central_probe_finds_h_plane_r1_witness():
    spec = spec_of("h_plane_r1")
    hits = central_one_forms_probe(spec, 1)
    assert "2" in hits  # theta^2 is central, so a_2 = const qualifies


def test_constants_z3():
    spec = spec_of("z3_root_of_unity")
    x, y = spec.pres.gen("x"), spec.pres.gen("y")
    got = constants(spec, [x ** 3, y ** 3, x * y, y * x, x, spec.pres.one])
    assert len(got) == 5  # all but the bare x
    assert spec.pres.one in got


def test_one_always_constant():
    for pid in ["quantum_plane_a", "twisted_heisenberg_2", "glpq2"]:
        spec = spec_of(pid)
        assert constants(spec, [spec.pres.one]) == [spec.pres.one]


# -- solve_theta_in_differentials


def test_solve_theta_shift():
    spec = spec_of("poly_shift_S12")
    x = spec.pres.gen("x")
    sol = solve_theta_in_differentials(spec, [x, x * x])
    assert sol.ok
    dx, dx2 = differential(spec, x), differential(spec, x * x)
    assert theta_solution_form(spec, sol, [x, x * x], "1") == \
        (2 * (1 + x)) * dx - dx2
    assert theta_solution_form(spec, sol, [x, x * x], "2") == \
        -(Scalar.from_int(1) / 2 + x) * dx + (Scalar.from_int(1) / 2) * dx2


def test_solve_theta_quantum_torus_closed_form():
    spec = spec_of("quantum_torus")
    al, be, ga, de, t1, t2 = params("alpha beta gamma delta t1 t2")
    A, B = (1 - al) / t1, (1 - be) / t1
    C, D = (1 - ga) / t2, (1 - de) / t2
    x, y = spec.pres.gen("x"), spec.pres.gen("y")
    xi, yi = spec.pres.gen("x", -1), spec.pres.gen("y", -1)
    dx, dy = differential(spec, x), differential(spec, y)
    det = A * D - B * C
    assert det.inverse() * (D * (dx * xi) - C * (dy * yi)) == theta(spec, "1")
    assert det.inverse() * (A * (dy * yi) - B * (dx * xi)) == theta(spec, "2")
    sol = solve_theta_in_differentials(spec, [x, y])
    assert sol.ok
    assert theta_solution_form(spec, sol, [x, y], "1") == theta(spec, "1")


def test_solve_theta_singular_matrix_returned():
    spec = spec_of("poly_shift_S12")
    x = spec.pres.gen("x")
    sol = solve_theta_in_differentials(spec, [x, x])  # duplicate coordinate
    assert not sol.ok
    assert sol.matrix is not None and len(sol.matrix) == 2


def test_solve_theta_z3():
    spec = spec_of("z3_root_of_unity")
    x, y = spec.pres.gen("x"), spec.pres.gen("y")
    sol = solve_theta_in_differentials(spec, [x, y])
    assert sol.ok
    assert theta_solution_form(spec, sol, [x, y], "1") == theta(spec, "1")
    assert theta_solution_form(spec, sol, [x, y], "2") == theta(spec, "2")


# -- form parsing round trip


def test_form_parse_round_trip():
    for pid in ["quantum_plane_a", "h_plane", "z3_root_of_unity"]:
        spec = spec_of(pid)
        x = spec.pres.gen(spec.pres.generators[-1].name)
        forms = [differential(spec, x), vartheta(spec),
                 x * theta(spec, spec.directions.labels[0])]
        for f in forms:
            assert parse_form(spec, str(f)) == f


# -- the constructor fixes the 2-form structure


@pytest.mark.parametrize("pid", [p for p in PRESET_IDS
                                 if spec_of(p).mode == "automorphism"
                                 and spec_of(p).directions.classified])
def test_group_classified_spec_carries_the_derived_two_forms(pid):
    preset = spec_of(pid)
    spec = CalculusSpec(preset.pres, preset.directions, preset.autos,
                        weights=preset.weights)  # built directly, nothing attached
    derived = two_form_structure(spec)
    assert spec.two_forms.basis == derived.basis
    assert spec.two_forms.reduction == derived.reduction
    assert spec.two_forms.delta_table == derived.delta_table
    assert spec.two_forms.zeta == derived.zeta


def test_unclassified_automorphism_spec_is_first_order():
    preset = spec_of("heisenberg")
    spec = CalculusSpec(preset.pres, DirectionSet(["1", "2"]), preset.autos,
                        weights=preset.weights)
    assert spec.two_forms is None


def _twisted_h2(zeta_coeff):
    pres = Presentation(["x", "y"], rules=[("y*x", "x*y - 1")])
    ident = identity_morphism(pres)
    one = Scalar.one()
    return CalculusSpec(pres, DirectionSet(["1", "2"]), {"1": ident, "2": ident},
                        lambdas={"1": "-y", "2": "x"},
                        two_forms=dict(basis=[("1", "2")],
                                       reduction={("2", "1"): [(-one, ("1", "2"))],
                                                  ("1", "1"): [], ("2", "2"): []},
                                       delta_table={},
                                       zeta={("1", "2"): pres.const(zeta_coeff)}))


def test_two_form_tables_are_validated_by_the_constructor():
    spec = _twisted_h2(1)
    assert spec.two_forms.zeta_form() == theta(spec, "1", "2")
    with pytest.raises(CalculusError) as exc:
        _twisted_h2(2)
    assert not isinstance(exc.value, InconsistentCalculus)
    assert str(exc.value).startswith("two-form candidate fails verification:\n")


@pytest.mark.parametrize("table, entry", [
    ("basis", [("1", "2"), ("9", "1")]),
    ("reduction", {("2", "1"): [(Scalar.one(), ("1", "9"))]}),
    ("delta_table", {"9": {}}),
    ("zeta", {("9", "2"): 1}),
], ids=["basis", "reduction", "delta_key", "zeta"])
def test_two_form_tables_need_known_labels(table, entry):
    spec = _twisted_h2(1)
    tables = dict(basis=spec.two_forms.basis, reduction=spec.two_forms.reduction,
                  delta_table={}, zeta=spec.two_forms.zeta)
    with pytest.raises(CalculusError) as exc:
        TwoFormStructure(spec, **{**tables, table: entry})
    assert str(exc.value) == "unknown direction 9"


@pytest.mark.parametrize("scalings, message", [
    ({("9", "2"): Scalar.from_int(2)}, "unknown direction 9"),
    ({("1", "9"): Scalar.from_int(2)}, "unknown direction 9"),
    ({("1", "1"): Scalar.zero()}, "theta scaling for 1 1 must be nonzero"),
], ids=["unknown_source", "unknown_target", "zero_factor"])
def test_theta_scalings_need_known_labels_and_nonzero_factors(scalings, message):
    preset = spec_of("glpq2")
    with pytest.raises(CalculusError) as exc:
        CalculusSpec(preset.pres, preset.directions, preset.autos,
                     lambdas=preset.lambdas, theta_scalings=scalings)
    assert str(exc.value) == message


def test_weights_twists_and_automorphisms_need_known_labels():
    heis, gl = spec_of("heisenberg"), spec_of("glpq2")
    with pytest.raises(CalculusError) as exc:
        CalculusSpec(heis.pres, heis.directions, heis.autos,
                     weights={"1": heis.weights["1"], "9": heis.weights["2"]})
    assert str(exc.value) == "unknown direction 9"
    with pytest.raises(CalculusError) as exc:
        CalculusSpec(gl.pres, gl.directions, gl.autos, lambdas={**gl.lambdas, "7": gl.pres.one})
    assert str(exc.value) == "unknown direction 7"
    with pytest.raises(CalculusError) as exc:
        CalculusSpec(heis.pres, heis.directions, {**heis.autos, "7": heis.autos["1"]})
    assert str(exc.value) == "unknown direction 7"


def test_triangle_target_must_be_a_direction():
    """A triangle (s, u) names the direction of the product s u; an unknown
    one used to end in a KeyError from two_form_structure."""
    shift = spec_of("poly_shift_S12").directions
    triangles = {**shift.triangles, ("1", "1"): "9"}
    with pytest.raises(CalculusError) as exc:
        DirectionSet(shift.labels, shift.biangles, triangles, shift.quad_classes)
    assert str(exc.value) == "unknown direction 9"


_HEISENBERG = spec_of("heisenberg")
_NOT_A_MORPHISM = verify_morphism(_HEISENBERG.pres, {"x": "x*y"})  # breaks y*x = -h + x*y
_NO_INVERSE = verify_morphism(_HEISENBERG.pres, {"y": "y + 1"})  # no inverse images given


def _heisenberg_with(**changes):
    args = dict(autos=_HEISENBERG.autos, weights=_HEISENBERG.weights, lambdas=None)
    return CalculusSpec(_HEISENBERG.pres, _HEISENBERG.directions, **{**args, **changes})


def _cyclic(*elements):
    """Directions a, b of Z/3 with the given elements."""
    return DirectionSet.from_group(dict(zip("ab", elements)), lambda g, h: (g + h) % 3, 0)


@pytest.mark.parametrize("build, message", [
    (lambda: _heisenberg_with(autos={"1": _HEISENBERG.autos["1"]}),
     "no automorphism for direction 2"),
    (lambda: _heisenberg_with(autos={**_HEISENBERG.autos, "2": _NOT_A_MORPHISM}),
     f"automorphism for 2 is not verified: {_NOT_A_MORPHISM.violations}"),
    (lambda: _heisenberg_with(autos={**_HEISENBERG.autos, "2": _NO_INVERSE}),
     "automorphism for 2 has no inverse"),
    (lambda: _heisenberg_with(lambdas={"1": "x", "2": "y"}),
     "give either weights or twist elements, not both"),
    (lambda: _heisenberg_with(weights=None, lambdas={"1": "x"}),
     "no twist element for direction 2"),
    (lambda: _heisenberg_with(weights={"1": 2}), "weight for 1 must be a Scalar"),
    (lambda: _heisenberg_with(weights={"1": Scalar.zero()}), "weight t_1 must be nonzero"),
    (lambda: _cyclic(1, 1), "directions a and b share a group element"),
    (lambda: _cyclic(1, 0), "the group unit cannot be a direction"),
], ids=["no_automorphism", "unverified_automorphism", "automorphism_without_inverse",
        "weights_and_twists", "no_twist", "weight_not_a_scalar", "zero_weight",
        "shared_group_element", "unit_direction"])
def test_calculus_rejects_invalid_input(build, message):
    with pytest.raises(CalculusError) as exc:
        build()
    assert (type(exc.value), str(exc.value)) == (CalculusError, message)
