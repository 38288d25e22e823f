"""Rewrite engine, confluence, morphisms, tensor products, module probe."""

import random

import pytest

from nccalc.algebra import (AlgebraError, Presentation, basis_independence_probe,
                            check_local_confluence, identity_morphism,
                            normal_words, tensor_product, unit_inverse,
                            verify_morphism)
from nccalc.parsing import ParseError
from nccalc.presets import load_preset, PRESET_IDS
from nccalc.scalar import Scalar, params


@pytest.fixture(scope="module")
def qplane():
    return Presentation(["x", "y"], params=["q", "p"],
                        rules=[("y*x", "q^-1 * x*y")], name="qplane")


@pytest.fixture(scope="module")
def heisenberg():
    return Presentation(["x", "y"], params=["h"],
                        rules=[("y*x", "x*y - h")], name="heis")


def test_normalize_quantum_plane(qplane):
    q, = [params("q")]
    assert qplane.parse("y*x") == (Scalar.one() / q) * qplane.parse("x*y")


def test_normalize_heisenberg(heisenberg):
    assert heisenberg.parse("y*x") == heisenberg.parse("x*y - h")


def test_normalize_gl_relation():
    gl = load_preset("glpq2").presentation
    assert gl.parse("d*a") == gl.parse("a*d - (p - q^-1)*b*c")


def test_normalize_idempotent_and_multiplicative():
    rng = random.Random(3)
    pres = load_preset("glpq2").presentation
    words = normal_words(pres, 3)
    for _ in range(40):
        w1, w2 = rng.choice(words), rng.choice(words)
        f = pres.poly({w1: Scalar.from_int(rng.randint(1, 3))})
        g = pres.poly({w2: Scalar.from_int(rng.randint(-3, -1))})
        fg = f * g
        assert pres.poly(fg.terms) == fg          # idempotent
        assert (f * g) * f == f * (g * f)          # associativity through rewriting


def test_undeclared_generator_and_bad_power(qplane):
    with pytest.raises(ParseError):
        qplane.parse("z * x")
    with pytest.raises(ParseError):
        qplane.parse("x^-1")  # x is not invertible


def test_confluence_single_rule(qplane):
    rep = check_local_confluence(qplane)
    assert rep.ok


def test_confluence_all_presets_small_overlaps():
    for pid in PRESET_IDS:
        pres = load_preset(pid).presentation
        rep = check_local_confluence(pres, max_overlap_len=3)
        assert rep.ok, f"{pid}: {rep}"


# critical pairs checked at the default overlap length, per preset
_PAIRS_CHECKED = {
    "glpq2": 32, "group_lattice_s3": 125, "tensor_hplane": 32, "z3_root_of_unity": 13,
    "quantum_torus": 12, "group_lattice_z3": 8, "h_plane": 4, "h_plane_r1": 4,
    "tensor_qplane": 4,
}


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_confluence_pairs_checked_pinned(pid):
    rep = check_local_confluence(load_preset(pid).presentation)
    assert rep.ok
    assert rep.pairs_checked == _PAIRS_CHECKED.get(pid, 0)


def test_q_binomial_expansion():
    """(x+y)^n = sum_k [n,k] x^k y^(n-k) on y*x = q^-1 x*y, with the Pascal
    rule [m,k] = [m-1,k-1] + q^-k [m-1,k]; parsing normalizes after every
    product, so the power holds n+1 words throughout."""
    pres = load_preset("quantum_plane_a").presentation
    q = Scalar.param("q")
    n = 24
    row = [Scalar.one()]
    for m in range(1, n + 1):
        row = [(row[k - 1] if k > 0 else Scalar.zero())
               + (q ** -k * row[k] if k < m else Scalar.zero()) for k in range(m + 1)]
    ix, iy = pres.gen_index("x"), pres.gen_index("y")
    expected = pres.poly({tuple(r for r in ((ix, k), (iy, n - k)) if r[1]): c
                          for k, c in enumerate(row)})
    got = pres.parse(f"(x+y)^{n}")
    assert len(got.terms) == n + 1
    assert got == expected


def test_confluence_flags_inconsistent_rules():
    pres = Presentation(["x", "y"], rules=[("y*x", "x*y"), ("y*x", "2*x*y")])
    rep = check_local_confluence(pres)
    assert not rep.ok
    assert rep.failures


def test_gl_scaling_morphism_verified():
    gl = load_preset("glpq2").presentation
    # alpha*delta = beta*gamma with (alpha, beta, gamma, delta) = (pq, q, p, 1)
    m = verify_morphism(gl, {"a": "p*q*a", "b": "q*b", "c": "p*c", "d": "d"},
                        inverse_images={"a": "(p*q)^-1*a", "b": "q^-1*b",
                                        "c": "p^-1*c", "d": "d"})
    assert m.verified and not m.violations


def test_gl_scaling_violation_reported():
    gl = load_preset("glpq2").presentation
    # alpha*delta != beta*gamma: the a d relation must break
    m = verify_morphism(gl, {"a": "2*a", "b": "q*b", "c": "p*c", "d": "d"})
    assert not m.verified
    violated = [rule for rule, _ in m.violations]
    assert any("d*a" in rule for rule in violated)
    residues = {rule: res for rule, res in m.violations}
    assert not residues["d*a"].is_zero()


def test_heisenberg_shift_morphism(heisenberg):
    m = verify_morphism(heisenberg, {"x": "x + h", "y": "y"},
                        inverse_images={"x": "x - h", "y": "y"})
    assert m.verified


def test_morphism_application_homomorphic(qplane):
    m = verify_morphism(qplane, {"x": "p^-1*x", "y": "q^-1*y"},
                        inverse_images={"x": "p*x", "y": "q*y"})
    rng = random.Random(9)
    for _ in range(20):
        words = normal_words(qplane, 3)
        f = qplane.poly({rng.choice(words): Scalar.from_int(rng.randint(1, 2))})
        g = qplane.poly({rng.choice(words): Scalar.from_int(rng.randint(1, 2))})
        assert m.apply(f * g) == m.apply(f) * m.apply(g)
    assert m.apply(qplane.one) == qplane.one


def test_morphism_scaling_on_monomial(qplane):
    # quantum plane phi_1 scales x y^2 by alpha^-1 beta^-2
    pres = Presentation(["x", "y"], params=["q", "alpha", "beta"],
                        rules=[("y*x", "q^-1 * x*y")])
    m = verify_morphism(pres, {"x": "alpha^-1*x", "y": "beta^-1*y"},
                        inverse_images={"x": "alpha*x", "y": "beta*y"})
    assert m.apply(pres.parse("x*y^2")) == pres.parse("alpha^-1*beta^-2*x*y^2")


def test_identity_morphism(qplane):
    m = identity_morphism(qplane)
    f = qplane.parse("x*y + 2*x")
    assert m.apply(f) == f


def test_morphism_composition_verified(qplane):
    m1 = verify_morphism(qplane, {"x": "p^-1*x", "y": "y"},
                         inverse_images={"x": "p*x", "y": "y"})
    m2 = verify_morphism(qplane, {"x": "x", "y": "q^-1*y"},
                         inverse_images={"x": "x", "y": "q*y"})
    comp = m1.then(m2)
    assert comp.verified
    f = qplane.parse("x^2*y")
    assert comp.apply(f) == m2.apply(m1.apply(f))
    # spot check by re-verification
    re = verify_morphism(qplane, {g.name: comp.images[g.name] for g in qplane.generators})
    assert re.verified


def test_unit_inverse():
    gl = load_preset("glpq2").presentation
    u = gl.parse("p*b*c^-1")
    assert (u * unit_inverse(u)).is_one()
    with pytest.raises(AlgebraError):
        unit_inverse(gl.parse("a"))
    with pytest.raises(AlgebraError):
        unit_inverse(gl.parse("b + c"))


def test_tensor_product_quantum_plane():
    comm = Presentation(["u", "v"], rules=[("v*u", "u*v")])
    qpl = Presentation(["U", "V"], params=["q"], rules=[("V*U", "q^-1 * U*V")])
    tp = tensor_product(comm, qpl)
    x, y = tp.parse("u*U"), tp.parse("v*V")
    q = tp.parse("q")
    assert (x * y - q * (y * x)).is_zero()


def test_tensor_product_h_plane_embedding():
    pres = load_preset("tensor_hplane").presentation
    x, y = pres.parse("v*U + u*V"), pres.parse("v*V")
    h = pres.parse("h")
    assert (x * y - y * x - h * y * y).is_zero()


def test_tensor_product_empty_factor():
    qpl = Presentation(["U", "V"], params=["q"], rules=[("V*U", "q^-1 * U*V")])
    trivial = Presentation([], name="unit")
    tp = tensor_product(qpl, trivial)
    assert [g.name for g in tp.generators] == ["U", "V"]
    assert tp.parse("V*U") == tp.parse("q^-1 * U*V")


def test_tensor_factors_commute():
    pres = load_preset("tensor_qplane").presentation
    names = [g.name for g in pres.generators]
    for g1 in names[:2]:
        for g2 in names[2:]:
            a, b = pres.gen(g1), pres.gen(g2)
            assert (a * b - b * a).is_zero()


def test_probe_finds_nilpotent_dependency():
    nil = Presentation(["x"], params=["m1", "m2"], rules=[("x^2", "0")])
    m1, m2 = params("m1 m2")

    def scaling_derivation(mu):
        def e(f):
            return nil.poly({w: c * (mu ** sum(k for _, k in w) - 1)
                             for w, c in f.terms.items()})
        return e

    rep = basis_independence_probe(nil, {"1": scaling_derivation(m1),
                                         "2": scaling_derivation(m2)}, 1)
    assert rep.dependent
    # the constant-coefficient witness f_1 = 1, f_2 = -(m1-1)/(m2-1) lies in the kernel
    f1 = nil.one
    f2 = nil.const(-(m1 - 1) / (m2 - 1))
    for test in [nil.one, nil.gen("x")]:
        acc = scaling_derivation(m1)(test) * f1 + scaling_derivation(m2)(test) * f2
        assert acc.is_zero()


def test_probe_no_dependency_on_quantum_plane():
    b = load_preset("quantum_plane_a")
    spec = b.spec
    ders = {s: (lambda f, s=s: spec.e(s, f)) for s in spec.directions.labels}
    rep = basis_independence_probe(spec.pres, ders, 2)
    assert not rep.dependent


def test_probe_single_direction_no_dependency():
    b = load_preset("poly_shift_S12")
    spec = b.spec
    rep = basis_independence_probe(spec.pres, {"1": lambda f: spec.e("1", f)}, 2)
    assert not rep.dependent
