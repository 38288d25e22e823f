"""Exact linear algebra over the scalar field and over presented algebras,
and the theta-solve built on it."""

from __future__ import annotations

from typing import NamedTuple

from .algebra import AlgebraError, Presentation, _acc, invert_element, unit_inverse
from .calculus import CalculusError, CalculusSpec, GradedForm, differential
from .scalar import Scalar


def _reduced_rows(rows, ncols, inverse):
    """Gauss-Jordan elimination of sparse rows (dicts column -> entry).

    Sweeps the columns 0..ncols-1.  The pivot of a column is the first row
    not yet a pivot whose entry there has a left inverse, inverse(entry), or
    None when it has none; the row is scaled on the left to 1 there, and the
    column is cleared from every other row by left row operations.  The rows
    not yet pivots are searched in the order row swaps would leave them.
    Returns {pivot column: row}.
    """
    free = [{j: v for j, v in row.items() if not v.is_zero()} for row in rows]
    pivots = {}
    for col in range(ncols):
        for k, row in enumerate(free):
            inv = inverse(row[col]) if col in row else None
            if inv is not None:
                break
        else:
            continue
        free[k] = free[0]
        del free[0]
        # over a ring with zero divisors inv * v can vanish
        piv = {j: p for j, v in row.items() if not (p := inv * v).is_zero()}
        for other in (*free, *pivots.values()):
            f = other.get(col)
            if f is not None:
                for j, v in piv.items():
                    _acc(other, j, -(f * v))
        pivots[col] = piv
    return pivots


def nullspace_vector(rows, ncols):
    """One nontrivial kernel vector of a sparse Scalar matrix, or None.

    rows are dicts column-index -> Scalar.
    """
    pivots = _reduced_rows(rows, ncols, Scalar.inverse)
    free = [j for j in range(ncols) if j not in pivots]
    if not free:
        return None
    f = free[0]
    vec = {f: Scalar.one()}
    for col, piv in pivots.items():
        if f in piv:
            vec[col] = -piv[f]
    return [vec.get(j, Scalar.zero()) for j in range(ncols)]


def normal_words(pres: Presentation, max_length: int, gens=None):
    """All rewrite-irreducible words up to the given letter length, () first."""
    out = [()]
    alphabet = [l for i in range(len(pres.generators)) if gens is None or i in gens
                for l in pres.letters(i)]

    def grow(word):
        if len(word) == max_length:
            return
        for l in alphabet:
            if word and word[-1] == l ^ 1:
                continue  # would cancel
            nxt = word + (l,)
            if pres._first_redex(nxt) is not None:
                continue
            out.append(nxt)
            grow(nxt)

    grow(())
    return out


def span_rows(unknowns, image):
    """The sparse rows of a linear search over the span of unknowns.

    image(u) yields the (key, Scalar) items of the image of unknown u; the
    result is {key: {column: Scalar}}, column j holding unknowns[j], with
    keys in the order they first occur.
    """
    rows = {}
    for j, u in enumerate(unknowns):
        for key, c in image(u):
            _acc(rows.setdefault(key, {}), j, c)
    return rows


def solve_linear(equations, ncols):
    """One solution of a sparse linear system over the scalar field, or None.

    equations are (coeff dict column -> Scalar, rhs Scalar) pairs.
    Free columns are set to zero.
    """
    # the right-hand side is column ncols; it becomes a pivot iff some
    # equation reduces to 0 = nonzero
    pivots = _reduced_rows(({**coeffs, ncols: rhs} for coeffs, rhs in equations),
                           ncols + 1, Scalar.inverse)
    if ncols in pivots:
        return None
    sol = [Scalar.zero()] * ncols
    for col, piv in pivots.items():
        # free columns are zero, so the pivot value is just the rhs
        sol[col] = piv.get(ncols, Scalar.zero())
    return sol


def invert_by_search(p):
    """Two-sided inverse of p, searched over normal words of bounded length.

    Solves p*z = 1 linearly in the span of normal words (in the generators
    occurring in p) of up to four letters, then checks z*p = 1.
    Returns None when no inverse is found within the bound.
    """
    pres = p.pres
    gens = sorted({l >> 1 for w in p.terms for l in w})
    cands = normal_words(pres, 4, gens=gens)
    rows = span_rows(cands, lambda w: (p * pres.poly({w: Scalar.one()})).terms.items())
    eqs = [(coeffs, Scalar.one() if rw == () else Scalar.zero())
           for rw, coeffs in rows.items()]
    sol = solve_linear(eqs, len(cands))
    if sol is None:
        return None
    z = pres.poly(dict(zip(cands, sol)))
    # p*z is 1 when the span reaches 1, else 0; z*p = 1 and p*z = 0 would give p = 0
    if (z * p).is_one():
        return z
    return None


def nc_left_inverse(pres, M):
    """Left inverse of a matrix over the algebra by Gauss-Jordan elimination.

    Eliminates [M | I]; requires an invertible pivot in every column (unit
    monomials, or elements inverted by the bounded search) and returns
    None otherwise.  The result B keeps B M = A, and is returned only once
    A = I.
    """
    n = len(M)
    pivots = _reduced_rows(({**dict(enumerate(row)), n + r: pres.one} for r, row in enumerate(M)),
                           n, invert_element)
    if any({j: v for j, v in pivots.get(c, {}).items() if j < n} != {c: pres.one}
           for c in range(n)):
        return None
    return [[pivots[c].get(n + j, pres.zero) for j in range(n)] for c in range(n)]


def _times(x, y):
    """x*y, where None stands for 1."""
    return y if x is None else x if y is None else x * y


def _column_minors(M):
    """D[k][S]: the determinant of the first k rows of M on the columns in
    the bitmask S, expanded along its last row, for the nonzero ones; None
    stands for 1."""
    n = len(M)
    D = [{0: None}]
    for k in range(n):
        level = {}
        for S, d in D[k].items():
            for j in range(n):
                if not S >> j & 1 and not M[k][j].is_zero():
                    # the cofactor sign of M[k][j] in rows 0..k on S + {j}: (-1) to
                    # the number of columns of S right of j
                    term = _times(d, M[k][j])
                    _acc(level, S | 1 << j, -term if (S >> j).bit_count() & 1 else term)
        D.append(level)
    return D


def det_cofactor(pres, M):
    """Determinant of a square matrix whose entries commute pairwise, by
    Laplace expansion memoized over column sets: n 2^(n-1) products, not n!."""
    return _column_minors(M)[-1].get((1 << len(M)) - 1, pres.zero)


def det_adjugate(pres, M):
    """(det M, adj M) for a square matrix whose entries commute pairwise.

    The cofactor of M[k][j] is the derivative of det M by that entry.  One
    reverse sweep over the column sets of det_cofactor, G[S] the derivative
    of det M by D[k][S], gives every cofactor for about twice the products
    of the determinant (Baur & Strassen 1983).
    """
    n = len(M)
    if n == 1:
        return M[0][0], [[pres.one]]
    D = _column_minors(M)
    adj = [[pres.zero] * n for _ in range(n)]
    G = {(1 << n) - 1: None}
    for k in range(n - 1, -1, -1):
        below = {}
        for T, g in G.items():
            for j in range(n):
                if not T >> j & 1:
                    continue
                S = T ^ 1 << j
                odd = (S >> j).bit_count() & 1
                if S in D[k]:
                    term = _times(D[k][S], g)
                    adj[j][k] = adj[j][k] + (-term if odd else term)
                if k and not M[k][j].is_zero():
                    term = _times(M[k][j], g)
                    _acc(below, S, -term if odd else term)
        G = below
    return D[n].get((1 << n) - 1, pres.zero), adj


def commutative_inverse(pres, M):
    """Inverse over a commutative algebra; the determinant must be a unit."""
    det, adj = det_adjugate(pres, M)
    if det.is_zero():
        return None, det
    try:
        dinv = unit_inverse(det)
    except AlgebraError:
        return None, det
    return [[dinv * x for x in row] for row in adj], det


# ---------------------------------------------------------------------------
# the theta-solve


class ThetaSolution(NamedTuple):
    ok: bool
    coefficients: dict | None  # label -> list[NCPoly] aligned with coords
    det: NCPoly | None
    matrix: tuple


def solve_theta_in_differentials(spec: CalculusSpec, coords) -> ThetaSolution:
    """Invert the matrix e_s(coord_j) to express theta^s via differentials.

    Uses the adjugate over commutative algebras (the determinant must be a
    unit) and unit-pivot Gaussian elimination otherwise; on failure the
    assembled matrix is returned.  Each routine certifies the inverse it
    returns, so it is not multiplied out here: adj(M) M = det(M) I for
    commuting entries, and the elimination, which keeps B M = A, returns B
    only once A = I.
    """
    labels = spec.directions.labels
    coords = [spec.pres.element(c) for c in coords]
    if len(coords) != len(labels):
        raise CalculusError("need exactly one coordinate per direction")
    M = [[spec.e(s, f) for s in labels] for f in coords]
    det = None
    if spec.pres.is_commutative():
        inv, det = commutative_inverse(spec.pres, M)
    else:
        inv = nc_left_inverse(spec.pres, M)
    if inv is None:
        return ThetaSolution(False, None, det, tuple(tuple(r) for r in M))
    coeffs = dict(zip(labels, inv))
    return ThetaSolution(True, coeffs, det, tuple(tuple(r) for r in M))


def theta_solution_form(spec, sol: ThetaSolution, coords, s) -> GradedForm:
    """The 1-form sum_j c_j d(coord_j) for direction s."""
    coords = [spec.pres.element(c) for c in coords]
    out = GradedForm.zero(spec)
    for c, f in zip(sol.coefficients[s], coords):
        out = out + c * differential(spec, f)
    return out
