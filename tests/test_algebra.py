"""Rewrite engine, confluence, morphisms, tensor products, module probe."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import nccalc
from nccalc.algebra import (AlgebraError, Memo, Presentation, _acc, basis_independence_probe,
                            check_local_confluence, identity_morphism, join,
                            normal_words, tensor_product, unit_inverse,
                            verify_morphism, word_from_letters)
from nccalc.parsing import ParseError
from nccalc.presets import load_preset, PRESET_IDS
from nccalc.scalar import Scalar, params
from nccalc.suites import random_poly


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


# critical pairs checked per preset (all of them: no overlap is skipped)
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
    expected = pres.poly({(2 * ix,) * k + (2 * iy,) * (n - k): c
                          for k, c in enumerate(row)})
    got = pres.parse(f"(x+y)^{n}")
    assert len(got.terms) == n + 1
    assert got == expected


def test_confluence_flags_inconsistent_rules():
    pres = Presentation(["x", "y"], rules=[("y*x", "x*y"), ("y*x", "2*x*y")])
    rep = check_local_confluence(pres)
    assert not rep.ok
    assert rep.failures


@pytest.mark.parametrize("rhs, failures", [
    ("0", (("x*y*x", "0", "x^3"),)),
    ("x^3", ()),
], ids=["not_confluent", "confluent"])
def test_confluence_checks_inclusions(rhs, failures):
    # y -> x lies inside x*y*x: an inclusion ambiguity, not an overlap
    pres = Presentation(["x", "y"], rules=[("x*y*x", rhs), ("y", "x")])
    rep = check_local_confluence(pres)
    assert (rep.ok, rep.pairs_checked, rep.failures) == (not failures, 2, failures)


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


def test_generator_without_an_image_is_fixed():
    """A table that leaves out a generator maps it to itself, in both
    directions and on its inverse, as the explicit identity image does."""
    torus = load_preset("quantum_torus").presentation  # x and y are invertible
    short = verify_morphism(torus, {"y": "beta*y"}, inverse_images={"y": "beta^-1*y"})
    full = verify_morphism(torus, {"x": "x", "y": "beta*y"},
                           inverse_images={"x": "x", "y": "beta^-1*y"})
    assert short.verified and full.verified
    for a, b in [(short, full), (short.inverse, full.inverse)]:
        assert (a.images, a.inv_images) == (b.images, b.inv_images)
    assert short.images["x"] == torus.gen("x") and short.inv_images["x"] == torus.gen("x", -1)
    ident = identity_morphism(torus)
    empty = verify_morphism(torus, {}, inverse_images={})
    assert (empty.verified, empty.images, empty.inv_images) == (True, ident.images,
                                                               ident.inv_images)
    with pytest.raises(AlgebraError, match="undeclared generator 'X'"):
        verify_morphism(torus, {"X": "beta*x"})


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
            return nil.poly({w: c * (mu ** len(w) - 1)
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


# -- memoized rewriting and morphism images against un-memoized references --

_ORACLE = dict(max_examples=100, deadline=None, derandomize=True, database=None)


def _reference_nf(pres, word, memo):
    """Depth-first reducer without the rewrite-DAG memo: it walks every
    rewrite path and memoizes only the requested and irreducible words."""
    cached = memo.get(word)
    if cached is not None:
        return cached
    one = Scalar.one()
    result = {}
    stack = [(word, one)]
    while stack:
        w, coeff = stack.pop()
        hit = memo.get(w)
        if hit is not None:
            for nw, nc in hit.items():
                _acc(result, nw, nc * coeff)
            continue
        m = pres._first_redex(w)
        if m is None:
            memo[w] = {w: one}
            _acc(result, w, coeff)
            continue
        i, rule = m
        head, tail = w[:i], w[i + len(rule.lhs):]
        for rw, rc in rule.rhs:
            stack.append((word_from_letters(head + rw + tail), coeff * rc))
    memo[word] = result
    return result


def _cold(pres):
    """The same rewrite system with an empty normal-form memo."""
    fresh = Presentation(pres.generators, pres.params)
    fresh._install_rules(pres.rules)
    return fresh


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_reducer_against_depth_first_reference(pid):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pres = load_preset(pid).presentation
    alphabet = [l for i in range(len(pres.generators)) for l in pres.letters(i)]
    engine, ref = _cold(pres), {}

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(st.lists(st.sampled_from(alphabet), max_size=8))
    def check(letters):
        w = word_from_letters(letters)
        assert engine._reduce_word(w) == _reference_nf(engine, w, ref)

    check()
    # every memo entry, branch words included, holds its word's normal form
    for w, nf in list(engine._nf.items()):
        assert nf == _reference_nf(engine, w, ref)


@pytest.mark.parametrize("n", [8, 13])
def test_heisenberg_normal_ordering(n):
    """y^n x^n = sum_j (-h)^j j! C(n,j)^2 x^(n-j) y^(n-j) on y*x = x*y - h,
    from a cold process with a time box: walking every rewrite path instead
    takes about a minute at n = 8."""
    pres = load_preset("heisenberg").presentation
    h = Scalar.param("h")
    expected = pres.poly({(0,) * (n - j) + (2,) * (n - j):
                          (-h) ** j * (math.factorial(j) * math.comb(n, j) ** 2)
                          for j in range(n + 1)})
    src = str(Path(nccalc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "nccalc.cli", "--preset", "heisenberg",
                           "normalize", f"y^{n}*x^{n}"],
                          env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"normal_form = {expected}\n"


def test_quantum_torus_power_keeps_memo_small():
    """Single-term rewrites are followed as chains, not memoized: storing every
    visited word of (x*y)^200 grows the memo from 419 to about 20 000 words."""
    pres = load_preset.__wrapped__("quantum_torus").presentation  # cold memo
    got = pres.parse("(x*y)^200")
    assert str(got) == "(1/(q^19900))*x^200*y^200"
    assert len(pres._nf) <= 2 * 419


def test_memo_fills_each_key_once():
    calls = []

    def fill(key):
        calls.append(key)
        return [2 * key]

    memo = Memo(fill)
    first = memo[3]
    assert first == [6] and memo[4] == [8]
    assert memo[3] is first and calls == [3, 4]  # a hit does not call fill
    assert 5 not in memo and memo.get(5) is None and calls == [3, 4]
    assert isinstance(memo, dict) and dict(memo) == {3: [6], 4: [8]}


def test_memo_stores_nothing_when_fill_raises():
    calls = []

    def fill(key):
        calls.append(key)
        if key < 0:
            raise ValueError(f"no image of {key}")
        return key

    memo = Memo(fill)
    for _ in range(2):  # the second read runs fill again and raises again
        with pytest.raises(ValueError, match="no image of -1"):
            memo[-1]
    assert -1 not in memo and len(memo) == 0 and calls == [-1, -1]
    assert memo[1] == 1 and dict(memo) == {1: 1}


def _fold_image(m, p):
    """Morphism image without the word-image memo: the product of letter
    images of each word, summed with +."""
    pres = m.pres
    out = pres.zero
    for w, c in p.terms.items():
        img = pres.one
        for l in w:
            name = pres.generators[l >> 1].name
            img = img * (m.inv_images[name] if l & 1 else m.images[name])
        out = out + img * c
    return out


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_memoized_morphism_images_against_fold(pid):
    spec = load_preset.__wrapped__(pid).spec  # cold morphism memos
    autos = list(spec.autos.values())
    morphisms = autos + [m.inverse for m in autos] + [autos[0].then(autos[-1])]
    rng = random.Random(pid)
    polys = [random_poly(spec.pres, rng, max_len=3, terms=3) for _ in range(12)]
    for m in morphisms:
        for p in polys + polys:  # the second pass reads the memo
            assert m.apply(p) == _fold_image(m, p)


def _general_product(a, b):
    """a*b by word concatenation and the reference reducer, no scalar lane."""
    acc, memo = {}, {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            w = word_from_letters(wa + wb)
            for nw, nc in _reference_nf(a.pres, w, memo).items():
                _acc(acc, nw, nc * (ca * cb))
    return a.pres.poly(acc)


@pytest.mark.parametrize("pid", ["glpq2", "quantum_torus", "heisenberg"])
def test_scalar_lane_matches_general_product(pid):
    pres = load_preset(pid).presentation
    p, q = Scalar.param("p"), Scalar.param("q")
    rng = random.Random(5)
    for c in (Scalar.from_int(3), Scalar.from_int(-2) / 7, q,
              (p * p + q) / (p - q + 1)):
        cp = pres.const(c)
        for _ in range(15):
            f = random_poly(pres, rng, max_len=3, terms=3)
            assert cp * f == _general_product(cp, f)
            assert f * cp == _general_product(f, cp)


@pytest.mark.parametrize("pid", ["quantum_torus", "glpq2"])
def test_join_matches_reduced_concatenation(pid):
    """join(u, v) cancels inverse letters where two words meet, in a cascade
    when the cancellation reaches further letters: the same word as reducing
    the concatenated letters from scratch."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pres = load_preset(pid).presentation
    alphabet = [l for i in range(len(pres.generators)) for l in pres.letters(i)]
    letters = st.lists(st.sampled_from(alphabet), max_size=8)

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(letters, letters)
    def check(a, b):
        u, v = word_from_letters(a), word_from_letters(b)
        assert join(u, v) == word_from_letters(u + v) == word_from_letters(a + b)

    check()
    # x*y joined with y^-1*x^-1 cancels all the way; a cascade stops at the
    # first pair of letters that are not inverse
    x, y = [2 * i for i, g in enumerate(pres.generators) if g.invertible][:2]
    assert join((x, y), (y ^ 1, x ^ 1)) == ()
    assert join((x, y), (y ^ 1,)) == (x,)
    assert join((y, x, y), (y ^ 1, x ^ 1, y)) == (y, y)


def test_parse_cancels_inverse_letters():
    pres = load_preset("quantum_torus").presentation
    assert pres.parse("x*y*y^-1*x^-1") == 1
    assert pres.parse("x^-2*x^3") == pres.gen("x")


@pytest.mark.parametrize("build, message", [
    (lambda: Presentation(["x", "x"]), "duplicate generator names"),
    (lambda: Presentation(["x"], params=["x"]), "parameter names collide with generators"),
    (lambda: Presentation(["x", "y"], rules=[("x*y + y", "x")]),
     "rule left-hand side must be a single word: x*y + y"),
    (lambda: Presentation(["x", "y"], rules=[("x*y", "y*x^2")]),
     "rule is not order-decreasing: x*y -> y*x^2"),
    (lambda: Presentation(["x"]).gen("x", -1), "generator 'x' is not invertible"),
], ids=["duplicate_generator", "parameter_is_generator", "sum_on_the_left",
        "order_increasing_rule", "inverse_of_non_invertible"])
def test_presentation_rejects_invalid_input(build, message):
    with pytest.raises(AlgebraError) as exc:
        build()
    assert (type(exc.value), str(exc.value)) == (AlgebraError, message)
