"""Exact arithmetic in the coefficient field: rational functions over Q.

A Scalar is a reduced fraction of multivariate polynomials with integer
coefficients.  The representation is canonical, so equality of values is
equality of representations:

  * numerator and denominator are coprime over Z: no common polynomial
    factor, and no integer that divides every coefficient of both,
  * the denominator has a positive leading coefficient under graded-lex
    order with parameter names sorted alphabetically,
  * parameters that do not occur are dropped from the scalar's parameter
    tuple.

Polynomials are dicts mapping exponent tuples to ints; the exponent
positions line up with the scalar's sorted parameter tuple.  Cancellation
takes the gcd over Z and divides out the integer content.  A scalar prints
monic: every coefficient over the denominator's leading coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from operator import add as _add, neg as _neg, sub as _sub
from typing import Iterable, Mapping

class ScalarError(ValueError):
    pass


class ZeroDenominator(ScalarError):
    pass


# ---------------------------------------------------------------------------
# polynomial helpers (dict exponent-tuple -> int coefficient, length = nvars)


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


def _grlex(e):
    return (sum(e), e)


def _p_lead(a):
    e = max(a, key=_grlex)
    return e, a[e]


def _p_div_exact(a, b):
    """Exact division over Z; raises if b does not divide a.

    The remainder's terms are taken in grlex order from a heap of
    (-degree, -exponents) keys.  A term that cancels stays in the heap, and
    an entry whose term has left the remainder is skipped when popped (lazy
    deletion); a popped term never comes back, since every term a step
    adds is below the one it removes.
    """
    from heapq import heapify, heappop, heappush  # kept off nccalc's import path

    eb, cb = _p_lead(b)
    rest = [(e, c) for e, c in b.items() if e != eb]
    q = {}
    rem = dict(a)
    # a monomial b divides term by term, in any order
    heap = [(-sum(e), tuple(map(_neg, e)), e) for e in rem] if rest else []
    heapify(heap)
    while rem:
        ea = heappop(heap)[2] if rest else next(iter(rem))
        if ea not in rem:
            continue
        dc, r = divmod(rem.pop(ea), cb)
        de = tuple(map(_sub, ea, eb))
        if r or any(x < 0 for x in de):
            raise ArithmeticError("inexact polynomial division")
        q[de] = dc
        for e, c in rest:
            e = tuple(map(_add, de, e))
            if e in rem:
                s = rem[e] - dc * c
                if s:
                    rem[e] = s
                else:
                    del rem[e]
            else:
                rem[e] = -dc * c
                heappush(heap, (-sum(e), tuple(map(_neg, e)), e))
    return q


def _common_power(exps, m):
    """Componentwise minimum of the exponent m and every exponent in exps."""
    for e in exps:
        if not any(m):
            break
        m = tuple(map(min, m, e))
    return m


# multi-term calls of _gcd_cofactors, at every level of its recursion
heuristic_hits = 0


def _p_quo_term(p, m, c):
    """p / (c*x^m) for a monomial c*x^m known to divide p."""
    return {tuple(map(_sub, e, m)): v // c for e, v in p.items()}


def _eval_first(p, xi):
    """p with its first variable set to the integer xi."""
    out = {}
    for e, c in p.items():
        k = e[1:]
        out[k] = out.get(k, 0) + c * xi ** e[0]
    return {k: c for k, c in out.items() if c}


def _interpolate(h, xi):
    """The polynomial whose first variable has the symmetric xi-adic digits
    of h's coefficients: the inverse of _eval_first for small coefficients."""
    out = {}
    i = 0
    while h:
        nxt = {}
        for e, v in h.items():
            g = v % xi
            if g > xi // 2:
                g -= xi
            if g:
                out[(i,) + e] = g
            if v != g:
                nxt[e] = (v - g) // xi
        h, i = nxt, i + 1
    return out


def _gcd_cofactors(a, b, nvars):
    """(g, a/g, b/g) for nonzero polynomials a and b over Z, g a gcd up to sign.

    A single-term operand makes g an integer times the common power.
    Otherwise the heuristic GCDHEU (Char, Geddes & Gonnet 1989; sympy's
    heugcd): with the ground content out, set the first variable to an
    integer xi, take the gcd of the images recursively, rebuild a candidate
    from its xi-adic digits and keep its primitive part.  The candidate is
    the gcd once it divides both a and b, provided xi >= 2*min(|a|, |b|) + 2
    (infinity norms); every point used meets that floor, so a candidate 1
    needs no division.  The two divisions give the cofactors.

    A failed point grows xi, and some point succeeds.  Write a = g*A and
    b = g*B.  At x1 = xi the gcd of the images is g(xi, .)*G, and G divides
    R = Res_x1(A, B), which is nonzero.  Except at the finitely many xi where
    A(xi, .) and B(xi, .) have a common factor of positive degree, G is an
    integer dividing cont(R).  Once xi > 2*cont(R)*|g| + 1, the symmetric
    xi-adic digits give G*g exactly, and its primitive part g divides both
    operands.  Since xi grows without bound and each recursive call has one
    variable fewer, the loop ends.
    """
    global heuristic_hits
    c = gcd(*a.values(), *b.values())
    if len(a) == 1 or len(b) == 1:
        m = _common_power(b, _common_power(a, next(iter(a))))
        return {m: c}, _p_quo_term(a, m, c), _p_quo_term(b, m, c)
    heuristic_hits += 1
    one = (0,) * nvars
    if c != 1:
        a, b = _p_quo_term(a, one, c), _p_quo_term(b, one, c)
    na, nb = max(map(abs, a.values())), max(map(abs, b.values()))
    floor = 2 * min(na, nb) + 2
    xi = max(min(floor + 27, 99 * isqrt(floor + 27)), floor,
             2 * min(na // abs(a[max(a)]), nb // abs(b[max(b)])) + 4)
    while True:
        fa, fb = _eval_first(a, xi), _eval_first(b, xi)
        if fa and fb:
            h = _interpolate(_gcd_cofactors(fa, fb, nvars - 1)[0], xi)
            if one in h and len(h) == 1:
                return {one: c}, a, b
            h = _p_quo_term(h, one, gcd(*h.values()))
            try:
                qa, qb = _p_div_exact(a, h), _p_div_exact(b, h)
            except ArithmeticError:
                pass
            else:
                return {e: v * c for e, v in h.items()}, qa, qb
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011


def _p_eval(p, values):
    """Evaluate with values[i] a Scalar for each variable; returns Scalar."""
    acc = None
    for e, c in p.items():
        term = Scalar.from_int(c)
        for i, k in enumerate(e):
            if k:
                term = term * values[i] ** k
        acc = term if acc is None else acc + term
    return acc if acc is not None else Scalar.zero()


def _coeff_str(c, lc):
    """|c/lc| in lowest terms, as `n` or `n/d`."""
    g = gcd(c, lc)
    n, d = abs(c) // g, lc // g
    return str(n) if d == 1 else f"{n}/{d}"


def _p_str(p, names, lc):
    """p/lc for a positive int lc; the coefficient 1 is left out of a term."""
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
        body = "*".join(factors)
        if not factors:
            body = _coeff_str(c, lc)
        elif abs(c) != lc:
            body = f"{_coeff_str(c, lc)}*{body}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _content_free(params, num, den):
    """The Scalar num/den for num, den coprime over Q: divide out the integer
    content of both and make den's grlex-leading coefficient positive."""
    g = gcd(*num.values(), *den.values())
    if _p_lead(den)[1] < 0:
        g = -g
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den = {e: c // g for e, c in den.items()}
    return Scalar(params, num, den, _canonical=True)


def _ratio(c):
    """(a, b) with c = a/b, for a Scalar c without parameters."""
    return c.num.get((), 0), c.den[()]


def _rational(n, d):
    """The Scalar n/d for ints n and d != 0: one gcd, den positive."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return Scalar((), {(): n // g} if n else {}, {(): d // g}, _canonical=True)


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
        return Scalar((), {}, {(): 1}, _canonical=True)

    @staticmethod
    def one():
        return Scalar((), {(): 1}, {(): 1}, _canonical=True)

    @staticmethod
    def from_int(n):
        return Scalar((), {(): n} if n else {}, {(): 1}, _canonical=True)

    @staticmethod
    def param(name):
        if not name or not name.isidentifier():
            raise ScalarError(f"invalid parameter name {name!r}")
        return Scalar((name,), {(1,): 1}, {(0,): 1}, _canonical=True)

    @staticmethod
    def _make(params, num, den):
        """Reduce num/den to the canonical representation."""
        if not den:
            raise ZeroDenominator("zero denominator")
        if not num:
            return Scalar.zero()
        if len(den) == 1:
            # monomial c*x^e: cancel the common power
            ((e, c),) = den.items()
            m = _common_power(num, e)
            if any(m):
                num = {tuple(map(_sub, k, m)): v for k, v in num.items()}
                den = {tuple(map(_sub, e, m)): c}
        else:
            # cancel the gcd over Z; the division checks give the cofactors
            _, num, den = _gcd_cofactors(num, den, len(params))
        # drop unused parameters
        n = len(params)
        used = [i for i in range(n) if any(e[i] for e in num) or any(e[i] for e in den)]
        if len(used) != n:
            proj = lambda e: tuple(e[i] for i in used)
            num = {proj(e): c for e, c in num.items()}
            den = {proj(e): c for e, c in den.items()}
            params = tuple(params[i] for i in used)
        return _content_free(params, num, den)

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
    # rational a/b, and the other operand n/d needs no alignment and no
    # polynomial gcd.  a*n/(b*d) and (b*n + a*d)/(b*d) are coprime over Q
    # as they stand (gcd(b*n + a*d, d) = gcd(n, d) = 1), and a parameter
    # missing from d keeps its terms in n, so only the integer content is
    # left to divide out.  When both operands are constants that is one
    # integer gcd (_rational), with no dict built along the way.  Scalars
    # are never mutated, so an operand may be returned as the result.

    def _scaled(self, a, b):
        """self * a/b for ints a and b != 0, a/b in lowest terms."""
        if not a:
            return Scalar.zero()
        if a == b:
            return self
        if not self.params:
            n, d = _ratio(self)
            return _rational(n * a, d * b)
        return _content_free(self.params, {e: v * a for e, v in self.num.items()},
                             {e: v * b for e, v in self.den.items()})

    def _shifted(self, a, b):
        """self + a/b for ints a and b > 0."""
        if not a:
            return self
        if not self.params:
            n, d = _ratio(self)
            return _rational(n * b + a * d, d * b)
        num = _p_add({e: v * b for e, v in self.num.items()},
                     {e: v * a for e, v in self.den.items()})
        return _content_free(self.params, num, {e: v * b for e, v in self.den.items()})

    def __add__(self, other):
        other = _try_coerce(other)
        if other is None:
            return NotImplemented
        if not other.params:
            return self._shifted(*_ratio(other))
        if not self.params:
            return other._shifted(*_ratio(self))
        return _combined("+", self, other)

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
            return self._scaled(*_ratio(other))
        if not self.params:
            return other._scaled(*_ratio(self))
        return _combined("*", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _try_coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDenominator("division by zero scalar")
        if not other.params:
            a, b = _ratio(other)
            return self._scaled(b, a)
        return _combined("/", self, other)

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
        # num and den are coprime over Z, so are their powers (Gauss's
        # lemma), and the grlex-leading coefficient of den**k is lc**k > 0
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
                "substitution makes denominator factor "
                f"({_p_str(self.den, self.params, _p_lead(self.den)[1])}) vanish")
        return num / den

    # -- comparisons / hashing / printing

    def __eq__(self, other):
        other = _try_coerce(other)
        if other is None:
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
        lc = _p_lead(self.den)[1]
        num = _p_str(self.num, self.params, lc)
        den = _p_str(self.den, self.params, lc)
        if den == "1":
            return num
        if len(self.num) > 1:
            num = f"({num})"
        return f"{num}/({den})"

    def __repr__(self):
        return f"Scalar({self})"


def _combine(op, a, b):
    """a op b for op in "+", "*", "/": align, form the unreduced fraction,
    reduce it with _make."""
    params, an, ad, bn, bd = a._aligned(b)
    if op == "*":
        return Scalar._make(params, _p_mul(an, bn), _p_mul(ad, bd))
    if op == "/":
        return Scalar._make(params, _p_mul(an, bd), _p_mul(ad, bn))
    if ad == bd:
        return Scalar._make(params, _p_add(an, bn), ad)
    return Scalar._make(params, _p_add(_p_mul(an, bd), _p_mul(bn, ad)), _p_mul(ad, bd))


# Scalars are canonical and never mutated, and == and hash compare values,
# so a hit is a Scalar equal to the one _make would build.  Only the lane
# whose cancellation takes a polynomial gcd is kept, and the bound caps
# the memory it holds.
_combine_memo = lru_cache(maxsize=256)(_combine)


def _combined(op, a, b):
    """a op b for a and b with parameters: memoized when a multi-term
    denominator (or, for /, a multi-term divisor) makes _make take a gcd."""
    if len(a.den) > 1 or len(b.den) > 1 or (op == "/" and len(b.num) > 1):
        return _combine_memo(op, a, b)
    return _combine(op, a, b)


def _try_coerce(x):
    """x as a Scalar: a Scalar, an int, or a rational with int numerator and
    denominator (a Fraction); None for anything else."""
    if isinstance(x, Scalar):
        return x
    a, b = getattr(x, "numerator", None), getattr(x, "denominator", None)
    if isinstance(a, int) and isinstance(b, int) and b:
        return _rational(a, b)
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
