"""Exact arithmetic in the coefficient field: rational functions over Q.

A Scalar is a reduced fraction of multivariate polynomials with Fraction
coefficients.  The representation is canonical, so equality of values is
equality of representations:

  * gcd(numerator, denominator) = 1,
  * the denominator has leading coefficient 1 under graded-lex order with
    parameter names sorted alphabetically,
  * parameters that do not occur are dropped from the scalar's parameter
    tuple.

Polynomials are dicts mapping exponent tuples to Fractions; the exponent
positions line up with the scalar's sorted parameter tuple.  Cancellation
splits num and den into a rational content and an integer primitive part
and takes the gcd of the parts over Z.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add as _add, sub as _sub
from typing import Iterable, Mapping

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ScalarError(ValueError):
    pass


class ZeroDenominator(ScalarError):
    pass


# ---------------------------------------------------------------------------
# polynomial helpers (dict exponent-tuple -> coefficient, length = nvars).
# A Scalar holds Fraction coefficients; the gcd runs on int ones.  Helpers
# that only add and multiply serve both.


def _p_add(a, b):
    r = dict(a)
    for e, c in b.items():
        s = r[e] + c if e in r else c
        if s:
            r[e] = s
        else:
            del r[e]
    return r


def _p_neg(a):
    return {e: -c for e, c in a.items()}


def _p_sub(a, b):
    return _p_add(a, _p_neg(b))


def _p_mul(a, b):
    r = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(_add, ea, eb))
            s = r[e] + ca * cb if e in r else ca * cb
            if s:
                r[e] = s
            else:
                del r[e]
    return r


def _p_pow(a, k):
    """a**k for k >= 1 by repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = a if out is None else _p_mul(out, a)
        k >>= 1
        if not k:
            return out
        a = _p_mul(a, a)


def _p_scale(a, c):
    if c == 0:
        return {}
    return {e: k * c for e, k in a.items()}


def _grlex(e):
    return (sum(e), e)


def _p_lead(a):
    e = max(a, key=_grlex)
    return e, a[e]


def _p_primitive(a):
    """(c, p) with a = c*p: c a positive Fraction, p over Z with content 1."""
    if not a:
        return _ONE, a
    m = lcm(*(c.denominator for c in a.values()))
    p = {e: c.numerator * (m // c.denominator) for e, c in a.items()}
    g = gcd(*p.values())
    return Fraction(g, m), ({e: c // g for e, c in p.items()} if g != 1 else p)


def _p_div_exact(a, b):
    """Exact division over Z; raises if b does not divide a."""
    eb, cb = _p_lead(b)
    rest = [(e, c) for e, c in b.items() if e != eb]
    q = {}
    rem = dict(a)
    while rem:
        # a monomial b divides term by term, in any order
        ea = max(rem, key=_grlex) if rest else next(iter(rem))
        dc, r = divmod(rem.pop(ea), cb)
        de = tuple(map(_sub, ea, eb))
        if r or any(x < 0 for x in de):
            raise ArithmeticError("inexact polynomial division")
        q[de] = dc
        for e, c in rest:
            e = tuple(map(_add, de, e))
            s = rem.get(e, 0) - dc * c
            if s:
                rem[e] = s
            else:
                del rem[e]
    return q


def _common_power(exps, m):
    """Componentwise minimum of the exponent m and every exponent in exps."""
    for e in exps:
        if not any(m):
            break
        m = tuple(map(min, m, e))
    return m


# univariate-in-main-variable view: dict degree -> sub-poly over vars[1:]


def _p_to_rec(a):
    rec = {}
    for e, c in a.items():
        rec.setdefault(e[0], {})[e[1:]] = c
    return rec


def _p_from_rec(rec):
    return {(d,) + e: c for d, sub in rec.items() for e, c in sub.items()}


def _rec_prem(f, g):
    """Pseudo-remainder of f by g, both in the view on var 0."""
    dg = max(g)
    lg = g[dg]
    r = f
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        # r <- lg*r - lr*x^(dr-dg)*g; the leading terms cancel
        r2 = {d: _p_mul(p, lg) for d, p in r.items() if d != dr}
        for d, p in g.items():
            if d != dg:
                k = d + dr - dg
                s = _p_sub(r2.get(k, {}), _p_mul(p, lr))
                if s:
                    r2[k] = s
                else:
                    del r2[k]
        r = r2
    return r


def _content_pp(rec, nvars):
    """(content, primitive part) of a poly in the view on var 0, over Z."""
    cont = {}
    one = (0,) * (nvars - 1)
    for sub in sorted(rec.values(), key=len):
        cont = _z_gcd(cont, sub, nvars - 1)
        if len(cont) == 1 and cont.get(one) in (1, -1):
            return {one: 1}, rec
    return cont, {d: _p_div_exact(sub, cont) for d, sub in rec.items()}


def _z_gcd(a, b, nvars):
    """Gcd of polynomials over Z, up to sign.

    A single-term operand divides only into monomials, so the gcd is then
    an integer times the common power of both operands (at nvars = 0, the
    integer gcd).  Otherwise a primitive pseudo-remainder sequence on the
    first variable (Collins 1967, Brown 1971): by Gauss's lemma each
    remainder may be replaced by its primitive part, whose content is a
    gcd over Z in the other variables, so coefficients stay small.
    """
    if not a or not b:
        return a or b
    if len(a) == 1 or len(b) == 1:
        m = _common_power(b, _common_power(a, next(iter(a))))
        return {m: gcd(*a.values(), *b.values())}
    ca, f = _content_pp(_p_to_rec(a), nvars)
    cb, g = _content_pp(_p_to_rec(b), nvars)
    if max(f) < max(g):
        f, g = g, f
    # a primitive g of degree 0 in var 0 is a unit
    while max(g):
        r = _rec_prem(f, g)
        if not r:
            break
        f, g = g, _content_pp(r, nvars)[1]
    return _p_mul({(0,) + e: c for e, c in _z_gcd(ca, cb, nvars - 1).items()},
                  _p_from_rec(g))


def _p_gcd(a, b, nvars):
    """Gcd of polynomials over Q, monic under graded-lex."""
    g = _z_gcd(_p_primitive(a)[1], _p_primitive(b)[1], nvars)
    return _p_scale(g, Fraction(1, _p_lead(g)[1])) if g else g


def _p_eval(p, values):
    """Evaluate with values[i] a Scalar for each variable; returns Scalar."""
    acc = None
    for e, c in p.items():
        term = Scalar._from_fraction(c)
        for i, k in enumerate(e):
            if k:
                term = term * values[i] ** k
        acc = term if acc is None else acc + term
    return acc if acc is not None else Scalar.zero()


def _p_str(p, names):
    if not p:
        return "0"
    parts = []
    for e in sorted(p, key=_grlex, reverse=True):
        c = p[e]
        factors = []
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k:
                factors.append(f"{name}^{k}")
        if not factors:
            body = str(abs(c))
        else:
            body = "*".join(factors)
            if abs(c) != 1:
                body = f"{abs(c)}*{body}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------


class Scalar:
    """Canonical rational function in declared parameters over Q."""

    __slots__ = ("params", "num", "den", "_hash")

    def __init__(self, params, num, den, *, _canonical=False):
        self.params = params
        self.num = num
        self.den = den
        self._hash = None
        if not _canonical:
            raise TypeError("use the Scalar constructors, not __init__")

    # -- constructors

    @staticmethod
    def zero():
        return Scalar((), {}, {(): _ONE}, _canonical=True)

    @staticmethod
    def one():
        return Scalar((), {(): _ONE}, {(): _ONE}, _canonical=True)

    @staticmethod
    def from_int(n):
        return Scalar._from_fraction(Fraction(n))

    @staticmethod
    def _from_fraction(q):
        q = Fraction(q)
        if q == 0:
            return Scalar.zero()
        return Scalar((), {(): q}, {(): _ONE}, _canonical=True)

    @staticmethod
    def param(name):
        if not name or not name.isidentifier():
            raise ScalarError(f"invalid parameter name {name!r}")
        return Scalar((name,), {(1,): _ONE}, {(0,): _ONE}, _canonical=True)

    @staticmethod
    def _make(params, num, den):
        """Reduce num/den to the canonical representation."""
        if not den:
            raise ZeroDenominator("zero denominator")
        if not num:
            return Scalar.zero()
        if len(den) == 1:
            # monomial c*x^e: cancel the common power, then make den monic
            ((e, c),) = den.items()
            m = _common_power(num, e)
            if any(m):
                num = {tuple(map(_sub, k, m)): v / c for k, v in num.items()}
                den = {tuple(map(_sub, e, m)): _ONE}
            elif c != 1:
                num = {k: v / c for k, v in num.items()}
                den = {e: _ONE}
        else:
            # over Z: split off the rational contents, cancel the gcd of the
            # primitive parts, then make den monic; the parts left are coprime
            cn, num = _p_primitive(num)
            cd, den = _p_primitive(den)
            g = _z_gcd(num, den, len(params))
            if len(g) > 1 or any(next(iter(g))):
                num = _p_div_exact(num, g)
                den = _p_div_exact(den, g)
            lc = _p_lead(den)[1]
            c = cn / cd / lc
            num = {e: c * v for e, v in num.items()}
            den = {e: Fraction(v, lc) for e, v in den.items()}
        # drop unused parameters
        n = len(params)
        used = [i for i in range(n) if any(e[i] for e in num) or any(e[i] for e in den)]
        if len(used) != n:
            proj = lambda e: tuple(e[i] for i in used)
            num = {proj(e): c for e, c in num.items()}
            den = {proj(e): c for e, c in den.items()}
            params = tuple(params[i] for i in used)
        return Scalar(params, num, den, _canonical=True)

    # -- alignment of parameter contexts

    def _aligned(self, other):
        if self.params == other.params:
            return self.params, self.num, self.den, other.num, other.den
        params = tuple(sorted(set(self.params) | set(other.params)))
        idx = {p: i for i, p in enumerate(params)}
        n = len(params)

        def remap(poly, old):
            pos = [idx[p] for p in old]
            out = {}
            for e, c in poly.items():
                ne = [0] * n
                for i, k in enumerate(e):
                    ne[pos[i]] = k
                out[tuple(ne)] = c
            return out

        return (params, remap(self.num, self.params), remap(self.den, self.params),
                remap(other.num, other.params), remap(other.den, other.params))

    # -- queries

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == self.den

    # -- arithmetic
    #
    # The constant lane: when one operand has no parameters it is a
    # rational c, and the other operand n/d needs no alignment and no
    # gcd.  c*n/d is canonical as it stands, and so is (n + c*d)/d:
    # gcd(n + c*d, d) = gcd(n, d) = 1, d is unchanged, and a parameter
    # missing from d keeps its terms in n.  Scalars are never mutated,
    # so an operand may be returned as the result.

    def _scaled(self, c):
        """self * c for a Fraction c."""
        if not c:
            return Scalar.zero()
        if c == 1:
            return self
        return Scalar(self.params, {e: v * c for e, v in self.num.items()}, self.den,
                      _canonical=True)

    def _shifted(self, c):
        """self + c for a Fraction c."""
        if not c:
            return self
        if not self.params:
            return Scalar._from_fraction(self.num.get((), _ZERO) + c)
        num = _p_add(self.num, {e: c * k for e, k in self.den.items()})
        return Scalar(self.params, num, self.den, _canonical=True)

    def __add__(self, other):
        other = _try_coerce(other)
        if other is None:
            return NotImplemented
        if not other.params:
            return self._shifted(other.num.get((), _ZERO))
        if not self.params:
            return other._shifted(self.num.get((), _ZERO))
        params, an, ad, bn, bd = self._aligned(other)
        if ad == bd:
            return Scalar._make(params, _p_add(an, bn), ad)
        return Scalar._make(params, _p_add(_p_mul(an, bd), _p_mul(bn, ad)), _p_mul(ad, bd))

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return Scalar(self.params, _p_neg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        other = _try_coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _try_coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _try_coerce(other)
        if other is None:
            return NotImplemented
        if not other.params:
            return self._scaled(other.num.get((), _ZERO))
        if not self.params:
            return other._scaled(self.num.get((), _ZERO))
        params, an, ad, bn, bd = self._aligned(other)
        return Scalar._make(params, _p_mul(an, bn), _p_mul(ad, bd))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _try_coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDenominator("division by zero scalar")
        if not other.params:
            return self._scaled(1 / other.num[()])
        params, an, ad, bn, bd = self._aligned(other)
        return Scalar._make(params, _p_mul(an, bd), _p_mul(ad, bn))

    def __rtruediv__(self, other):
        other = _try_coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self):
        return Scalar.one() / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("scalar powers must be integers")
        if n == 0:
            return Scalar.one()
        # num and den are coprime, so are their powers, and the grlex
        # leading coefficient of den**k is 1**k: no gcd
        base = self if n > 0 else self.inverse()
        return Scalar(base.params, _p_pow(base.num, abs(n)), _p_pow(base.den, abs(n)),
                      _canonical=True)

    # -- substitution

    def substitute(self, bindings: Mapping[str, "Scalar"]):
        """Evaluate with parameters replaced by scalars (cancel first)."""
        values = []
        for i, p in enumerate(self.params):
            v = bindings.get(p)
            values.append(scalar(v) if v is not None else Scalar.param(p))
        num = _p_eval(self.num, values)
        den = _p_eval(self.den, values)
        if den.is_zero():
            raise ZeroDenominator(
                f"substitution makes denominator factor ({_p_str(self.den, self.params)}) vanish")
        return num / den

    # -- comparisons / hashing / printing

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.params == other.params and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.params,
                               frozenset(self.num.items()),
                               frozenset(self.den.items())))
        return self._hash

    def __str__(self):
        num = _p_str(self.num, self.params)
        if self.den == {(0,) * len(self.params): _ONE}:
            return num
        den = _p_str(self.den, self.params)
        if len(self.num) > 1:
            num = f"({num})"
        return f"{num}/({den})"

    def __repr__(self):
        return f"Scalar({self})"


def _try_coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar._from_fraction(Fraction(x))
    return None


def scalar(x) -> Scalar:
    """Coerce ints and Fractions to Scalar."""
    s = _try_coerce(x)
    if s is None:
        raise TypeError(f"cannot interpret {x!r} as a scalar")
    return s


def params(names: str | Iterable[str]):
    """Declare parameters: params("q p t1") -> three Scalars."""
    if isinstance(names, str):
        names = names.split()
    out = [Scalar.param(n) for n in names]
    seen = set()
    for n in names:
        if n in seen:
            raise ScalarError(f"duplicate parameter {n!r}")
        seen.add(n)
    return out[0] if len(out) == 1 else tuple(out)


def parse_scalar(text: str, param_names: Iterable[str]) -> Scalar:
    """Parse the textual scalar syntax, e.g. '(1 - q)/(t1)'."""
    from .parsing import parse_scalar_expr

    return parse_scalar_expr(text, set(param_names))
