"""Exact rational-function arithmetic: canonical forms, gcd, substitution."""

import functools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from nccalc.scalar import (Scalar, ScalarError, ZeroDenominator, params, parse_scalar,
                           scalar)


def test_cancellation_of_inverse_weight():
    alpha, t = params("alpha t")
    assert (1 - alpha) / t / (Scalar.one() / t) == 1 - alpha


def test_ad_minus_bc_combination():
    al, be, ga, de, t1, t2 = params("alpha beta gamma delta t1 t2")
    A, B = (1 - al) / t1, (1 - be) / t1
    C, D = (1 - ga) / t2, (1 - de) / t2
    assert A * D - B * C == ((1 - al) * (1 - de) - (1 - be) * (1 - ga)) / (t1 * t2)


def test_geometric_factor_cancels():
    q, = [params("q")]
    assert (q ** 3 - 1) / (q - 1) == q ** 2 + q + 1


def test_substitute_h_plane_weight_choice():
    r, t2 = params("r t2")
    assert ((1 - r) / t2).substitute({"t2": 1 - r}) == Scalar.one()


def test_substitute_r_equals_pq():
    r, p, q = params("r p q")
    assert r.substitute({"r": p * q}) == p * q


def test_cancellation_precedes_substitution():
    r, = [params("r")]
    assert ((r - 1) / (r - 1)).substitute({"r": Scalar.one()}) == Scalar.one()


def test_substitute_vanishing_denominator_names_factor():
    r, t = params("r t")
    with pytest.raises(ZeroDenominator) as exc:
        ((1 + r) / (r - 1)).substitute({"r": Scalar.one()})
    assert "r - 1" in str(exc.value)
    with pytest.raises(ZeroDenominator) as exc:
        ((1 + r) / (2 * r - 1)).substitute({"r": Fraction(1, 2)})
    assert "factor (r - 1/2) vanish" in str(exc.value)


@pytest.mark.parametrize("build, text", [
    (lambda p, q: (2 * p - 1) / (4 * q + 6), "(1/2*p - 1/4)/(q + 3/2)"),
    (lambda p, q: (3 * p) / (6 - 4 * q), "-3/4*p/(q - 3/2)"),
    (lambda p, q: Scalar.from_int(-6) / 4, "-3/2"),
    (lambda p, q: (p + Fraction(1, 2)) / (3 - q), "(-p - 1/2)/(q - 3)"),
    (lambda p, q: (2 * p * q + 4) / (6 * p), "(1/3*p*q + 2/3)/(p)"),
    (lambda p, q: (p * p - q * q) / (2 * p + 2 * q), "1/2*p - 1/2*q"),
])
def test_integer_scalar_prints_monic(build, text):
    """Integer num and den print over den's leading coefficient."""
    value = build(*params("p q"))
    assert str(value) == text
    assert parse_scalar(text, ["p", "q"]) == value
    assert scalar(Fraction(-6, 4)) == Fraction(-3, 2)
    with pytest.raises(TypeError):
        scalar(1.5)


def test_division_by_zero_scalar():
    q, = [params("q")]
    with pytest.raises(ZeroDenominator):
        q / Scalar.zero()


def test_unused_parameters_dropped():
    p, q = params("p q")
    assert (p + q - q).params == ("p",)
    assert p + q - q == p


def test_equality_is_representation_equality():
    p, q = params("p q")
    a = (p ** 2 - q ** 2) / (p - q)
    assert a == p + q
    assert hash(a) == hash(p + q)


def _random_scalar(rng, names=("p", "q")):
    out = Scalar.from_int(rng.randint(-2, 2))
    for name in names:
        if rng.random() < 0.7:
            out = out + Scalar.param(name) * rng.randint(-2, 2)
        if rng.random() < 0.3:
            out = out * (Scalar.param(name) + rng.randint(-1, 2))
    if rng.random() < 0.4:
        den = Scalar.param(rng.choice(names)) + rng.randint(1, 3)
        out = out / den
    return out


def test_field_axioms_random():
    rng = random.Random(5)
    for _ in range(100):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == Scalar.one()


def test_power_equals_repeated_product():
    p, q, t = params("p q t")
    rng = random.Random(13)
    cases = [(p ** 2 - 2 * q + Scalar.from_int(1) / 3) / (p * q + q - Scalar.from_int(5) / 7),
             (p - q) / (3 * p + 2 * t - 1), Scalar.from_int(-2) / 3 * (p + q * t + 1),
             Scalar.from_int(7) / 5]
    cases += [s for s in (_random_scalar(rng, ("p", "q", "t")) for _ in range(40))
              if len(s.num) > 1 or len(s.den) > 1][:8]
    for a in cases:
        for k in range(-4, 7):
            base = a if k >= 0 else a.inverse()
            want = Scalar.one()
            for _ in range(abs(k)):
                want = want * base
            assert a ** k == want, (a, k)
    zero = Scalar.zero()
    assert zero ** 3 == zero
    with pytest.raises(ZeroDenominator):
        zero ** -2


def test_substitute_commutes_with_arithmetic():
    rng = random.Random(11)
    p = Scalar.param("p")
    binding = {"q": p + 1}
    for _ in range(60):
        a, b = _random_scalar(rng), _random_scalar(rng)
        assert (a + b).substitute(binding) == a.substitute(binding) + b.substitute(binding)
        assert (a * b).substitute(binding) == a.substitute(binding) * b.substitute(binding)


def test_parse_and_reemit_round_trip():
    rng = random.Random(23)
    for _ in range(50):
        a = _random_scalar(rng)
        assert parse_scalar(str(a), ["p", "q"]) == a


def test_parse_examples():
    assert parse_scalar("(1 - q)/(t1)", ["q", "t1"]) == \
        (1 - Scalar.param("q")) / Scalar.param("t1")
    assert parse_scalar("p*q - 1", ["p", "q"]) == \
        Scalar.param("p") * Scalar.param("q") - 1


def test_parameter_validation():
    with pytest.raises(ScalarError):
        Scalar.param("not valid")
    with pytest.raises(ScalarError):
        params("q q")


def test_gcd_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(37)
    sp, sq = sympy.symbols("p q")

    def to_sympy(s):
        syms = {"p": sp, "q": sq}
        def poly_to(poly, names):
            acc = 0
            for e, c in poly.items():
                term = sympy.Rational(c.numerator, c.denominator)
                for n, k in zip(names, e):
                    term *= syms[n] ** k
                acc += term
            return acc
        return poly_to(s.num, s.params) / poly_to(s.den, s.params)

    for _ in range(40):
        a, b = _random_scalar(rng), _random_scalar(rng)
        if b.is_zero():
            continue
        ours = a / b
        theirs = sympy.cancel(to_sympy(a) / to_sympy(b))
        assert sympy.simplify(to_sympy(ours) - theirs) == 0


def test_parse_error_trailing_operator_located():
    from nccalc.parsing import ParseError
    cases = {"q +": "unexpected end of input at column 4",
             "(q": "expected ')', got end of input at column 3",
             "q*": "unexpected end of input at column 3"}
    for text, message in cases.items():
        with pytest.raises(ParseError) as exc:
            parse_scalar(text, ["q"])
        assert str(exc.value) == message


# -- oracle for the gcd and cancellation fast paths -------------------------
#
# Strategies favour what the calculi produce (constants, single terms and
# equal denominators) and keep multi-term operands with a planted common
# factor so the heuristic gcd is exercised as well.

_NAMES = ("p", "q", "t")
_ORACLE = dict(max_examples=300, deadline=None, derandomize=True, database=None)


def _strategies():
    """st, polys and poly_pairs.  Every strategy is built once, outside the
    draws: hypothesis cannot cache one whose parts take lambdas, so a
    strategy built inside a draw is built and validated on every draw."""
    st = pytest.importorskip("hypothesis.strategies")
    from nccalc.scalar import _p_mul

    @functools.cache
    def polys(n):
        exps = st.tuples(*[st.integers(0, 2)] * n)
        coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
        const = coeffs.map(lambda c: {(0,) * n: c})
        mono = st.builds(lambda e, c: {e: c}, exps, coeffs)
        multi = st.dictionaries(exps, coeffs, min_size=2, max_size=3)
        return st.one_of(const, mono, mono, multi, multi)

    sizes, coin = st.sampled_from((2, 3)), st.booleans()

    @st.composite
    def poly_pairs(draw, count):
        """n and `count` pairs over n variables, all sharing one planted factor or none."""
        n = draw(sizes)
        f = draw(polys(n)) if draw(coin) else {(0,) * n: Fraction(1)}
        return n, [(_p_mul(f, draw(polys(n))), _p_mul(f, draw(polys(n))))
                   for _ in range(count)]

    return st, polys, poly_pairs


def _sympy_poly(sympy, poly, n, domain="QQ"):
    return sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                 for e, c in poly.items()},
                                *sympy.symbols(_NAMES[:n]), domain=domain)


def _from_sympy(poly):
    return {tuple(int(k) for k in e): Fraction(int(c.p), int(c.q))
            for e, c in poly.terms() if c}


def _over_z(*polys):
    """The polys times the lcm of all their coefficient denominators: integer
    coefficients, and the same ratios between them."""
    m = lcm(*(Fraction(c).denominator for p in polys for c in p.values()))
    return [{e: int(c * m) for e, c in p.items()} for p in polys]


def _sympy_canonical(sympy, num, den, n):
    """(params, num, den) of sympy's cancel of num/den in nccalc's canonical form:
    integer coefficients with no common integer factor, den's grlex lead positive."""
    top, bottom = _sympy_poly(sympy, num, n).cancel(_sympy_poly(sympy, den, n), include=True)
    top, bottom = _over_z(_from_sympy(top), _from_sympy(bottom))
    g = gcd(*top.values(), *bottom.values())
    if bottom[max(bottom, key=lambda e: (sum(e), e))] < 0:
        g = -g
    used = [i for i in range(n) if any(e[i] for e in top) or any(e[i] for e in bottom)]
    proj = lambda p: {tuple(e[i] for i in used): c // g for e, c in p.items()}
    return tuple(_NAMES[i] for i in used), proj(top), proj(bottom)


def _canonical(s):
    """(params, num, den) of a Scalar, whose coefficients must all be ints."""
    assert all(type(c) is int for p in (s.num, s.den) for c in p.values()), s
    return s.params, s.num, s.den


def _sympy_z_gcd(sympy, a, b, n):
    """sympy's gcd over ZZ of integer polys a and b, and its negative."""
    g = _from_sympy(_sympy_poly(sympy, a, n, "ZZ").gcd(_sympy_poly(sympy, b, n, "ZZ")))
    return g, {e: -c for e, c in g.items()}


def test_gcd_fast_paths_against_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    from nccalc.gcd import _gcd_cofactors
    _, _, poly_pairs = _strategies()

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(poly_pairs(1))
    def check(case):
        n, [(a, b)] = case
        [a], [b] = _over_z(a), _over_z(b)
        assert _gcd_cofactors(a, b, n)[0] in _sympy_z_gcd(sympy, a, b, n)

    check()


def test_make_and_add_fast_paths_against_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    from nccalc.scalar import _p_add, _p_mul
    st, _, poly_pairs = _strategies()

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(poly_pairs(2), st.booleans())
    def check(case, same_den):
        n, [(num, den), (onum, oden)] = case
        params = _NAMES[:n]
        a = Scalar._make(params, *_over_z(num, den))
        assert _canonical(a) == _sympy_canonical(sympy, num, den, n)
        if same_den:
            oden = den
        b = Scalar._make(params, *_over_z(onum, oden))
        want = _sympy_canonical(sympy, _p_add(_p_mul(num, oden), _p_mul(onum, den)),
                                _p_mul(den, oden), n)
        assert _canonical(a + b) == want

    check()


def test_constant_lane_against_sympy_cancel():
    """a*c, c*a, a+c, c+a, a-c, c-a and a/c for a rational c skip the gcd."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    from nccalc.scalar import _p_add
    st, polys, _ = _strategies()
    scale = lambda p, c: {e: v * c for e, v in p.items()}

    sizes = st.sampled_from((2, 3))

    @st.composite
    def quotients(draw):
        n = draw(sizes)
        return n, draw(polys(n)), draw(polys(n))

    constants = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(quotients(), constants, st.booleans())
    def check(case, c, as_scalar):
        n, f, g = case
        a = Scalar._make(_NAMES[:n], *_over_z(f, g))
        k = Scalar.from_int(c.numerator) / c.denominator if as_scalar else c
        shifted = lambda sign_f, sign_c: _p_add(scale(f, sign_f), scale(g, sign_c * c))
        cases = {"a*c": (a * k, scale(f, c), g), "c*a": (k * a, scale(f, c), g),
                 "a+c": (a + k, shifted(1, 1), g), "c+a": (k + a, shifted(1, 1), g),
                 "a-c": (a - k, shifted(1, -1), g), "c-a": (k - a, shifted(-1, 1), g),
                 "a/c": (a / k, scale(f, 1 / c), g)}
        for name, (ours, num, den) in cases.items():
            want = _sympy_canonical(sympy, num, den, n)
            assert _canonical(ours) == want, name
            assert all(any(e[i] for e in ours.num) or any(e[i] for e in ours.den)
                       for i in range(len(ours.params))), name

    check()


def test_integer_gcd_with_polynomial_content_against_sympy():
    """Large rational coefficients over 3 variables; the planted factor's content
    in the main variable p is a nonconstant polynomial in q and t."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from nccalc.gcd import _gcd_cofactors
    from nccalc.scalar import _p_mul

    coeffs = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool),
                       st.integers(1, 10 ** 3))
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    qt_exps = st.tuples(st.just(0), st.integers(0, 2), st.integers(0, 2))
    contents = st.dictionaries(qt_exps, coeffs, min_size=2, max_size=3)
    cofactors = st.dictionaries(exps, coeffs, min_size=1, max_size=3)

    @st.composite
    def cases(draw):
        content = draw(contents)
        core = draw(cofactors)
        core.setdefault((1, 0, 0), draw(coeffs))
        factor = _p_mul(content, core)
        return _p_mul(factor, draw(cofactors)), _p_mul(factor, draw(cofactors))

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(cases())
    def check(case):
        a, b = case
        [za], [zb] = _over_z(a), _over_z(b)
        assert _gcd_cofactors(za, zb, 3)[0] in _sympy_z_gcd(sympy, za, zb, 3)
        s = Scalar._make(_NAMES, *_over_z(a, b))
        assert _canonical(s) == _sympy_canonical(sympy, a, b, 3)

    check()


def test_integer_lane_against_fractions():
    """Two constants combine in ints: +, -, *, /, inverse and a Fraction factor
    agree with fractions.Fraction and give the canonical form; a constant
    against a parameterized scalar agrees with _make of the unreduced dicts."""
    from nccalc.scalar import _p_add
    rng = random.Random(19)
    nums = range(-50, 51)
    dens = [d for d in range(-12, 13) if d]
    scale = lambda p, k: {e: v * k for e, v in p.items() if k}

    def constant(n, d):
        return Scalar._make((), scale({(): 1}, n), {(): d}), Fraction(n, d)

    def check(s, want):
        assert s.params == () and s.den[()] > 0
        n = s.num.get((), 0)
        assert gcd(n, s.den[()]) == 1 and (s.num == {} if want == 0 else s.num == {(): n})
        assert Fraction(n, s.den[()]) == want

    for _ in range(2000):
        (a, fa), (b, fb) = (constant(rng.choice(nums), rng.choice(dens)) for _ in range(2))
        k = Fraction(rng.choice(nums), rng.choice(dens))
        for s, want in [(a, fa), (a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb),
                        (a * k, fa * k), (k * a, fa * k), (a + k, fa + k)]:
            check(s, want)
        if fb:
            check(a / b, fa / fb)
        if fa:
            check(a.inverse(), 1 / fa)
            check(k / a, k / fa)

    for _ in range(300):
        c, n, d = _random_scalar(rng), rng.choice(nums), rng.choice(dens)
        k, _ = constant(n, d)
        prod = Scalar._make(c.params, scale(c.num, n), scale(c.den, d))
        total = Scalar._make(c.params, _p_add(scale(c.num, d), scale(c.den, n)),
                             scale(c.den, d))
        assert c * k == k * c == prod
        assert c + k == k + c == total


# -- oracle for the cancellation memo ----------------------------------------


def _unreduced(op, a, b):
    """_make of a op b formed from the aligned dicts, with no memo."""
    from nccalc.scalar import _p_add, _p_mul, _p_neg
    params, an, ad, bn, bd = a._aligned(b)
    if op == "-":
        op, bn = "+", _p_neg(bn)
    num, den = {"+": (_p_add(_p_mul(an, bd), _p_mul(bn, ad)), _p_mul(ad, bd)),
                "*": (_p_mul(an, bn), _p_mul(ad, bd)),
                "/": (_p_mul(an, bd), _p_mul(ad, bn))}[op]
    return Scalar._make(params, num, den)


_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def test_cancellation_memo_against_unreduced_make():
    """+ - * / on quotients of multi-term polynomials in 2-3 parameters equal
    _make of the unreduced aligned dicts, on a cold and on a warm memo, for
    repeated and swapped operands; one pair gives four different results."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from nccalc.scalar import _combine_memo

    # multilinear terms: at higher degrees in 3 parameters the PRS gcd can
    # take tens of seconds for one operation
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    sizes, orders = st.sampled_from((2, 3)), st.permutations(_NAMES)
    multis = {n: st.dictionaries(st.tuples(*[st.integers(0, 1)] * n), coeffs,
                                 min_size=2, max_size=3) for n in (2, 3)}

    @st.composite
    def quotients(draw):
        n = draw(sizes)
        multi = multis[n]
        names = sorted(draw(orders)[:n])
        return Scalar._make(tuple(names), *_over_z(draw(multi), draw(multi)))

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(quotients(), quotients())
    def check(a, b):
        cases = [(op, x, y, _unreduced(op, x, y))
                 for x, y in [(a, b), (b, a), (a, a), (b, b)]
                 for op in _OPS]
        _combine_memo.cache_clear()
        for order in (cases, cases, cases[::-1]):
            for op, x, y, want in order:
                assert _OPS[op](x, y) == want, (op, x, y)

    check()
    p, q, t = params("p q t")
    a, b = (p + q) / (p - q), (p * t + 1) / (q + t)
    _combine_memo.cache_clear()
    results = [f(a, b) for f in _OPS.values()]
    assert results == [_unreduced(op, a, b) for op in _OPS]
    assert len(set(results)) == 4
    assert [f(a, b) for f in _OPS.values()] == results
    assert _combine_memo.cache_info().hits >= 4


def test_cancellation_memo_stays_bounded():
    from nccalc.scalar import _combine_memo
    p, q = params("p q")
    maxsize = _combine_memo.cache_parameters()["maxsize"]
    assert maxsize is not None
    b = (p - q) / (p + q)
    _combine_memo.cache_clear()
    for k in range(maxsize + 50):
        a = (p + k) / (q + 1)
        assert a * b == _unreduced("*", a, b)
    assert _combine_memo.cache_info().currsize == maxsize


# -- oracles for the heuristic gcd with cofactors ----------------------------


def _check_cofactors(sympy, a, b, n):
    """_gcd_cofactors(a, b) against sympy's gcd over ZZ: g equal up to sign,
    and g times each cofactor gives back its operand."""
    from nccalc.gcd import _gcd_cofactors
    from nccalc.scalar import _p_mul
    g, qa, qb = _gcd_cofactors(a, b, n)
    gens = sympy.symbols(f"v:{n}")
    want = sympy.Poly.from_dict(a, *gens, domain="ZZ").gcd(
        sympy.Poly.from_dict(b, *gens, domain="ZZ"))
    want = {tuple(map(int, e)): int(c) for e, c in want.terms()}
    assert g in (want, {e: -c for e, c in want.items()})
    assert _p_mul(g, qa) == a and _p_mul(g, qb) == b


def test_gcd_cofactors_against_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    _, _, poly_pairs = _strategies()

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(poly_pairs(1))
    def check(case):
        n, [(a, b)] = case
        [a], [b] = _over_z(a), _over_z(b)
        _check_cofactors(sympy, a, b, n)

    check()


def test_gcd_cofactors_on_products_of_linear_factors():
    """The Vandermonde shape: a and b are products of many factors
    i_k - i_j + c in 4-6 variables, sharing some of them."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from nccalc.scalar import _p_mul

    sizes = st.integers(4, 6)
    index_pairs = {n: st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
                   for n in (4, 5, 6)}
    leads, tails, consts = st.sampled_from((1, 2)), st.integers(-2, 2), st.integers(-3, 3)
    common_counts, counts = st.integers(0, 4), st.integers(1, 4)

    @st.composite
    def cases(draw):
        n = draw(sizes)

        def linear():
            j, k = draw(index_pairs[n])
            unit = lambda i: tuple(int(i == m) for m in range(n))
            f = {unit(j): draw(leads), unit(k): draw(tails)}
            f = {e: c for e, c in f.items() if c}
            c = draw(consts)
            return {**f, (0,) * n: c} if c else f

        def product(count):
            out = {(0,) * n: 1}
            for _ in range(count):
                out = _p_mul(out, linear())
            return out

        common = product(draw(common_counts))
        return n, _p_mul(common, product(draw(counts))), \
            _p_mul(common, product(draw(counts)))

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(cases())
    def check(case):
        n, a, b = case
        _check_cofactors(sympy, a, b, n)

    check()


def test_gcd_cofactors_with_large_coefficients():
    """Coefficients above 10^4 in both operands: there sympy's first
    evaluation point, capped at 99*sqrt(2*min(|a|, |b|) + 29), falls below
    the 2*min(|a|, |b|) + 2 that the heuristic needs."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from nccalc.scalar import _p_mul

    big = st.integers(10 ** 4, 10 ** 7).flatmap(lambda c: st.sampled_from((c, -c)))
    small = st.integers(-3, 3).filter(bool)
    sizes, coin = st.sampled_from((1, 2, 3)), st.booleans()
    # n -> (polys with small or big coefficients, polys with big coefficients)
    polys = {n: tuple(st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), coeffs,
                                      min_size=1, max_size=3)
                      for coeffs in (st.one_of(small, big), big)) for n in (1, 2, 3)}

    @st.composite
    def cases(draw):
        n = draw(sizes)
        mixed, large = polys[n]
        common = draw(mixed) if draw(coin) else {(0,) * n: 1}
        a, b = _p_mul(common, draw(large)), _p_mul(common, draw(large))
        hypothesis.assume(min(max(map(abs, a.values())), max(map(abs, b.values()))) > 10 ** 4)
        return n, a, b

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(cases())
    def check(case):
        n, a, b = case
        _check_cofactors(sympy, a, b, n)

    check()


# a = -(8x - 5)(5x + 9) and b = 2x(8x - 5)(3x + 1)
_THREE_POINTS = ({(2,): -40, (1,): -47, (0,): 45}, {(3,): 48, (2,): -14, (1,): -10})


def test_gcd_cofactors_takes_a_third_point(monkeypatch):
    """The candidates at xi = 123 and 1008 do not divide, the one at 13769
    is the gcd 8x - 5."""
    sympy = pytest.importorskip("sympy")
    import nccalc.gcd as gcd_module
    points = []
    real = gcd_module._eval_first

    def eval_first(p, xi):
        if xi not in points:
            points.append(xi)
        return real(p, xi)

    monkeypatch.setattr(gcd_module, "_eval_first", eval_first)
    _check_cofactors(sympy, *_THREE_POINTS, 1)
    assert points == [123, 1008, 13769]


def test_gcd_cofactors_past_six_points(monkeypatch):
    """The search has no point cap: with the candidate checks of the first
    seven points made to fail, the eighth gives the gcd."""
    sympy = pytest.importorskip("sympy")
    import nccalc.gcd as gcd_module
    real, calls = gcd_module._p_div_exact, []

    def div_exact(a, b):
        calls.append(b)
        if len(calls) <= 7:
            raise ArithmeticError("refused")
        return real(a, b)

    monkeypatch.setattr(gcd_module, "_p_div_exact", div_exact)
    _check_cofactors(sympy, *_THREE_POINTS, 1)
    assert len(calls) == 9


@pytest.mark.parametrize("case", [f"F_{k}/{n + 1}" for k in (1, 2, 3) for n in (1, 2, 3)]
                         + ["issue_10996"])
def test_gcd_cofactors_on_sympy_benchmark_polys(case):
    """Fateman's GCD benchmarks F_1 (trivial gcd), F_2 (dense quartics) and
    F_3 (sparse, high degree) in 2 to 4 variables, and the pair of sympy's
    heuristic-gcd regression test for its issue 10996."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys import specialpolys
    if case == "issue_10996":
        gens = sympy.symbols("x y z")
        f, g = (sympy.Poly(text, *gens) for text in (
            "12*x**6*y**7*z**3 - 3*x**4*y**9*z**3 + 12*x**3*y**5*z**4",
            "-48*x**7*y**8*z**3 + 12*x**5*y**10*z**3 - 48*x**5*y**7*z**2"
            " + 36*x**4*y**7*z - 48*x**4*y**6*z**4 + 12*x**3*y**9*z**2 - 48*x**3*y**4"
            " - 9*x**2*y**9*z - 48*x**2*y**5*z**3 + 12*x*y**6 + 36*x*y**5*z**2 - 48*y**2*z"))
    else:
        name, nvars = case.split("/")
        f, g, _ = getattr(specialpolys, f"fateman_poly_{name}")(int(nvars) - 1)
    a, b = ({tuple(map(int, e)): int(c) for e, c in p.as_dict().items()} for p in (f, g))
    _check_cofactors(sympy, a, b, len(f.gens))


def test_cancellation_at_degree_three_against_unreduced_make():
    """The sibling of test_cancellation_memo_against_unreduced_make at degree
    <= 3 in 3 parameters, where the PRS gcd used to stall: each operand
    agrees with sympy's cancel, and + - * / agree with _make of the
    unreduced dicts on a cold and on a warm memo."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from nccalc.scalar import _combine_memo

    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda e: sum(e) <= 3)
    multi = st.dictionaries(exps, coeffs, min_size=2, max_size=3)

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(multi, multi, multi, multi)
    def check(an, ad, bn, bd):
        a = Scalar._make(_NAMES, *_over_z(an, ad))
        b = Scalar._make(_NAMES, *_over_z(bn, bd))
        assert _canonical(a) == _sympy_canonical(sympy, an, ad, 3)
        assert _canonical(b) == _sympy_canonical(sympy, bn, bd, 3)
        cases = [(op, x, y, _unreduced(op, x, y))
                 for x, y in [(a, b), (b, a)] for op in _OPS]
        _combine_memo.cache_clear()
        for order in (cases, cases[::-1]):
            for op, x, y, want in order:
                assert _OPS[op](x, y) == want, (op, x, y)

    check()


_STALL = ("(-p^2*q + 2)/(p*q^2 - 3)",
          "(p^2*t^2 + 1/3*p*q^2 - 1/2*p*q*t)/(p*q^2 + 1/2*q*t^2 + 1/4*p^2)")


def test_prs_stall_case_in_a_time_box():
    """The sum and the product of two fractions in 3 parameters, on which
    the pseudo-remainder gcd took about a minute, from a cold process in a
    10 s time box; both agree with sympy's cancel."""
    sympy = pytest.importorskip("sympy")
    import os
    import subprocess
    import sys
    from pathlib import Path
    import nccalc
    code = ("from nccalc.scalar import parse_scalar\n"
            f"a, b = (parse_scalar(s, 'pqt') for s in {_STALL!r})\n"
            "print(a + b)\nprint(a * b)\n")
    src = str(Path(nccalc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    x, y = (sympy.sympify(s.replace("^", "**")) for s in _STALL)
    for line, want in zip(lines, (x + y, x * y)):
        num, den = sympy.fraction(sympy.together(sympy.sympify(line.replace("^", "**"))))
        top, bottom = sympy.fraction(sympy.cancel(want))
        assert sympy.gcd(num, den).is_number, line
        assert sympy.expand(num * bottom - den * top) == 0, line
