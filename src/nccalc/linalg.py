"""Exact linear algebra over the scalar field and over presented algebras."""

from __future__ import annotations

from .algebra import AlgebraError, _acc, unit_inverse
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


def nc_left_inverse(pres, M):
    """Left inverse of a matrix over the algebra by Gauss-Jordan elimination.

    Eliminates [M | I]; requires an invertible pivot in every column (unit
    monomials, or elements inverted by the bounded search) and returns
    None otherwise.  The result B keeps B M = A, and is returned only once
    A = I.
    """
    from .algebra import invert_element

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
