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


def det_cofactor(pres, M):
    """Determinant by first-row cofactor expansion (commuting entries)."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = pres.zero
    for j in range(n):
        if M[0][j].is_zero():
            continue
        minor = [[M[r][c] for c in range(n) if c != j] for r in range(1, n)]
        total = total + M[0][j] * det_cofactor(pres, minor) * Scalar.from_int((-1) ** j)
    return total


def adjugate(pres, M):
    """Adjugate matrix via cofactors; entries must commute pairwise."""
    n = len(M)
    adj = [[pres.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[M[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = det_cofactor(pres, minor) if minor else pres.one
            adj[j][i] = cof * Scalar.from_int((-1) ** (i + j))
    return adj


def commutative_inverse(pres, M):
    """Inverse over a commutative algebra; the determinant must be a unit."""
    det = det_cofactor(pres, M)
    if det.is_zero():
        return None, det
    try:
        if det.is_scalar():
            dinv = pres.const(det.as_scalar().inverse())
        else:
            dinv = unit_inverse(det)
    except (AlgebraError, ZeroDivisionError):
        return None, det
    adj = adjugate(pres, M)
    return [[dinv * x for x in row] for row in adj], det
