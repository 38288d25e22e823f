"""Exact linear algebra over the scalar field and over presented algebras."""

from __future__ import annotations

from .algebra import AlgebraError, _acc, unit_inverse
from .scalar import Scalar


def _reduced_rows(rows):
    """Gauss-Jordan elimination of sparse Scalar rows (dicts column -> Scalar).

    Returns {pivot column: row}, each row monic at its pivot (its lowest
    column) and zero at every other pivot column.
    """
    pivots = {}
    for row in rows:
        row = {j: v for j, v in row.items() if not v.is_zero()}
        for col, piv in pivots.items():
            c = row.get(col)
            if c is not None:
                for j, v in piv.items():
                    _acc(row, j, -(c * v))
        if not row:
            continue
        col = min(row)
        lead = row[col]
        norm = {j: v / lead for j, v in row.items()}
        for piv in pivots.values():
            c = piv.get(col)
            if c is not None:
                for j, v in norm.items():
                    _acc(piv, j, -(c * v))
        pivots[col] = norm
    return pivots


def nullspace_vector(rows, ncols):
    """One nontrivial kernel vector of a sparse Scalar matrix, or None.

    rows are dicts column-index -> Scalar.
    """
    pivots = _reduced_rows(rows)
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
    pivots = _reduced_rows({**coeffs, ncols: rhs} for coeffs, rhs in equations)
    if ncols in pivots:
        return None
    sol = [Scalar.zero()] * ncols
    for col, piv in pivots.items():
        # free columns are zero, so the pivot value is just the rhs
        sol[col] = piv.get(ncols, Scalar.zero())
    return sol


def nc_left_inverse(pres, M):
    """Left inverse of a matrix over the algebra by Gaussian elimination.

    Requires an invertible pivot in every column (unit monomials, or
    elements inverted by the bounded search); returns None otherwise.
    """
    from .algebra import invert_element

    n = len(M)
    A = [list(row) for row in M]
    B = [[pres.one if i == j else pres.zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        inv = None
        for r in range(col, n):
            if A[r][col].is_zero():
                continue
            inv = invert_element(A[r][col])
            if inv is not None:
                piv = r
                break
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        B[col], B[piv] = B[piv], B[col]
        A[col] = [inv * x for x in A[col]]
        B[col] = [inv * x for x in B[col]]
        for r in range(n):
            if r == col:
                continue
            f = A[r][col]
            if f.is_zero():
                continue
            A[r] = [a - f * b for a, b in zip(A[r], A[col])]
            B[r] = [a - f * b for a, b in zip(B[r], B[col])]
    for r in range(n):
        for c in range(n):
            expect = pres.one if r == c else pres.zero
            if A[r][c] != expect:
                return None
    return B


def det_permanent_expansion(pres, M):
    """Determinant by the permutation-sum formula (commuting entries)."""
    n = len(M)
    total = pres.zero
    for perm, sign in _permutations_signed(n):
        term = pres.one
        for i in range(n):
            term = term * M[i][perm[i]]
            if term.is_zero():
                break
        total = total + term * Scalar.from_int(sign)
    return total


def _permutations_signed(n):
    import itertools

    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        yield perm, (-1) ** inv


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
