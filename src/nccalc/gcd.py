"""The gcd over Z of multivariate integer polynomials: the GCDHEU kernel.

`Scalar._make` cancels a multi-term denominator against its numerator
with `_gcd_cofactors`, which returns the gcd together with both cofactors.
Few calls meet such a denominator, so `nccalc.scalar` imports this module
on the first one.  Polynomials are dicts exponent tuple -> int, as there.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, isqrt
from operator import add as _add, neg as _neg, sub as _sub

from .scalar import _common_power, _p_lead


def _p_div_exact(a, b):
    """Exact division over Z; raises if b does not divide a.

    The remainder's terms are taken in grlex order from a heap of
    (-degree, -exponents) keys.  A term that cancels stays in the heap, and
    an entry whose term has left the remainder is skipped when popped (lazy
    deletion); a popped term never comes back, since every term a step
    adds is below the one it removes.
    """
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
