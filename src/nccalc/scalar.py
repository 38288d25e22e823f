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
positions line up with the scalar's sorted parameter tuple.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub as _sub
from typing import Iterable, Mapping

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ScalarError(ValueError):
    pass


class ZeroDenominator(ScalarError):
    pass


# ---------------------------------------------------------------------------
# polynomial helpers (dict exponent-tuple -> Fraction, length = nvars)


def _p_const(c, nvars):
    c = Fraction(c)
    if c == 0:
        return {}
    return {(0,) * nvars: c}


def _p_is_const(p):
    return not p or (len(p) == 1 and not any(next(iter(p))))


def _p_add(a, b):
    r = dict(a)
    for e, c in b.items():
        s = r.get(e, _ZERO) + c
        if s:
            r[e] = s
        else:
            r.pop(e, None)
    return r


def _p_neg(a):
    return {e: -c for e, c in a.items()}


def _p_sub(a, b):
    return _p_add(a, _p_neg(b))


def _p_mul(a, b):
    r = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = r.get(e, _ZERO) + ca * cb
            if s:
                r[e] = s
            else:
                del r[e]
    return r


def _p_scale(a, c):
    if c == 0:
        return {}
    return {e: k * c for e, k in a.items()}


def _grlex(e):
    return (sum(e), e)


def _p_lead(a):
    e = max(a, key=_grlex)
    return e, a[e]


def _p_monic(a):
    if not a:
        return a
    _, c = _p_lead(a)
    if c == 1:
        return a
    return _p_scale(a, 1 / c)


def _p_div_exact(a, b):
    """Exact multivariate division; raises if b does not divide a."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = {}
    rem = dict(a)
    eb, cb = _p_lead(b)
    while rem:
        ea, ca = _p_lead(rem)
        de = tuple(x - y for x, y in zip(ea, eb))
        if any(x < 0 for x in de):
            raise ArithmeticError("inexact polynomial division")
        dc = ca / cb
        q[de] = dc
        rem = _p_sub(rem, _p_mul({de: dc}, b))
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
        d = e[0]
        rec.setdefault(d, {})[e[1:]] = c
    return rec


def _p_from_rec(rec):
    a = {}
    for d, sub in rec.items():
        for e, c in sub.items():
            a[(d,) + e] = c
    return a


def _lift(sub):
    """Embed a poly in vars[1:] as a poly in all vars (degree 0 in var 0)."""
    return {(0,) + e: c for e, c in sub.items()}


def _rec_sub(a, b):
    r = dict(a)
    for d, p in b.items():
        s = _p_sub(r.get(d, {}), p)
        if s:
            r[d] = s
        else:
            r.pop(d, None)
    return r


def _p_pseudo_rem(a, b):
    """Pseudo-remainder of a by b, both univariate in var 0 over poly coeffs."""
    ra, rb = _p_to_rec(a), _p_to_rec(b)
    db = max(rb)
    lb = rb[db]
    r = ra
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        # r <- lb*r - lr*x^(dr-db)*b
        r2 = {d: _p_mul(p, lb) for d, p in r.items()}
        shifted = {d + dr - db: _p_mul(p, lr) for d, p in rb.items()}
        r = _rec_sub(r2, shifted)
    return _p_from_rec(r)


def _p_gcd(a, b, nvars):
    """Gcd of multivariate polynomials over Q, monic under graded-lex.

    A single-term operand divides only into monomials, so the gcd is then
    the common power of both operands.  Otherwise a primitive
    pseudo-remainder sequence on the first variable with recursive
    content computation.
    """
    if not a:
        return _p_monic(dict(b))
    if not b:
        return _p_monic(dict(a))
    if nvars == 0:
        return {(): _ONE}
    if _p_is_const(a) or _p_is_const(b):
        return _p_const(1, nvars)
    if len(a) == 1 or len(b) == 1:
        m = _common_power(b, _common_power(a, next(iter(a))))
        return {m: _ONE}

    def content_pp(p):
        rec = _p_to_rec(p)
        cont = {}
        for sub in rec.values():
            cont = _p_gcd(cont, sub, nvars - 1)
        pp = _p_div_exact(p, _lift(cont))
        return cont, pp

    ca, pa = content_pp(a)
    cb, pb = content_pp(b)
    cg = _p_gcd(ca, cb, nvars - 1)

    def deg0(p):
        return max(d for d in _p_to_rec(p))

    f, g = pa, pb
    if deg0(f) < deg0(g):
        f, g = g, f
    while True:
        r = _p_pseudo_rem(f, g)
        if not r:
            break
        _, rp = content_pp(r)
        f, g = g, rp
        if deg0(g) == 0:
            # primitive and degree 0 in var 0: gcd of primitive parts is 1
            g = _p_const(1, nvars)
            break
    return _p_monic(_p_mul(_lift(cg), g))


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
        # drop unused parameters
        n = len(params)
        used = [i for i in range(n) if any(e[i] for e in num) or any(e[i] for e in den)]
        if len(used) != n:
            proj = lambda e: tuple(e[i] for i in used)
            num = {proj(e): c for e, c in num.items()}
            den = {proj(e): c for e, c in den.items()}
            params = tuple(params[i] for i in used)
            n = len(params)
        if len(den) > 1:
            g = _p_gcd(num, den, n)
            if not _p_is_const(g):
                num = _p_div_exact(num, g)
                den = _p_div_exact(den, g)
                return Scalar._make(params, num, den)
            _, lc = _p_lead(den)
            if lc != 1:
                num = _p_scale(num, 1 / lc)
                den = _p_scale(den, 1 / lc)
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
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

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
