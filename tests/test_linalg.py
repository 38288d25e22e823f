"""Exact linear algebra: the determinant and the adjugate against permutation
sums, the sparse elimination against sympy."""

import itertools

import pytest

from nccalc.algebra import Presentation, verify_morphism
from nccalc.calculus import CalculusSpec, DirectionSet
from nccalc.linalg import det_cofactor
from nccalc.scalar import Scalar


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
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        yield perm, (-1) ** inv


def _shift_calculus(consts):
    """C[x] with automorphisms x -> x + i_k + c_k, one per constant c_k."""
    names = [f"i{k}" for k in range(1, len(consts) + 1)]
    pres = Presentation(["x"], params=names)
    autos = {}
    for k, (name, c) in enumerate(zip(names, consts)):
        shift = f"({name} + ({c}))"
        autos[str(k + 1)] = verify_morphism(pres, {"x": f"x + {shift}"},
                                            inverse_images={"x": f"x - {shift}"})
    return CalculusSpec(pres, DirectionSet(list(autos)), autos)


@pytest.mark.parametrize("consts", [(0, 0), (1, -2), (-3, 3), (0, 0, 0), (2, -1, 3)])
def test_det_cofactor_matches_permutation_sum_on_shift_calculi(consts):
    spec = _shift_calculus(consts)
    x = spec.pres.gen("x")
    labels = spec.directions.labels
    M = [[spec.e(s, x ** (j + 1)) for s in labels] for j in range(len(consts))]
    det = det_cofactor(spec.pres, M)
    assert not det.is_zero()
    assert det == det_permanent_expansion(spec.pres, M)


@pytest.mark.parametrize("consts", [(1, -2, 3), (2, 0, -1, 3)])
def test_shift_calculus_inverse_takes_no_prs_fallback(consts):
    """The theta-solve of an n = 3 and an n = 4 shift calculus solves, and
    its multi-term cancellations go through the heuristic gcd."""
    import nccalc.scalar as scalar_module
    from nccalc.calculus import solve_theta_in_differentials
    from nccalc.scalar import _combine_memo

    spec = _shift_calculus(consts)
    x = spec.pres.gen("x")
    _combine_memo.cache_clear()
    hits = scalar_module.heuristic_hits
    sol = solve_theta_in_differentials(spec, [x ** (j + 1) for j in range(len(consts))])
    assert sol.ok
    assert scalar_module.heuristic_hits > hits


@pytest.mark.parametrize("source, coords", [
    ("poly_shift_S12", ["x", "x^2"]),
    ("poly_shift_sym", ["x", "x^2"]),
    ("quantum_torus", ["x", "y"]),
    ("z3_root_of_unity", ["x", "y"]),
    ((1, -2), None),
    ((1, -2, 3), None),
    ((2, 0, -1, 3), None),
], ids=["poly_shift_S12", "poly_shift_sym", "quantum_torus", "z3_root_of_unity",
        "shift_n2", "shift_n3", "shift_n4"])
def test_theta_solve_coefficients_invert_the_matrix(source, coords):
    """sum_k c_s[k] M[k][j] = delta_sj for the coefficients and the matrix of
    a theta-solve: the solve trusts the inverse its routine certifies, and
    this multiplies it out."""
    from nccalc.calculus import solve_theta_in_differentials
    from nccalc.presets import load_preset

    if isinstance(source, str):
        spec = load_preset(source).spec
    else:
        spec = _shift_calculus(source)
        coords = [f"x^{j + 1}" for j in range(len(source))]
    sol = solve_theta_in_differentials(spec, coords)
    assert sol.ok
    M = sol.matrix
    labels = spec.directions.labels
    for s in labels:
        c = sol.coefficients[s]
        for j, t in enumerate(labels):
            total = sum((c[k] * M[k][j] for k in range(len(M))), spec.pres.zero)
            assert total == (spec.pres.one if s == t else spec.pres.zero), (s, t)


# -- sympy oracle for the one Gauss-Jordan elimination ----------------------

_ORACLE = dict(max_examples=200, deadline=None, derandomize=True, database=None)


def _systems():
    st = pytest.importorskip("hypothesis.strategies")
    from fractions import Fraction

    nonzero = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    entries = st.one_of(nonzero, st.just(Fraction(0)))
    sizes, coin = st.integers(1, 4), st.booleans()  # built once, outside the draws

    @st.composite
    def systems(draw):
        """(A, b): up to 4 x 4 rational, sparse, often rank deficient."""
        nrows, ncols = draw(sizes), draw(sizes)
        A = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and draw(coin):  # plant a dependent row
            k = draw(entries)
            A[-1] = [a + k * b for a, b in zip(A[0], A[1 % nrows])]
        b = [draw(entries) for _ in range(nrows)]
        return A, b

    return systems


def _scalar(f):
    return Scalar.from_int(f.numerator) / Scalar.from_int(f.denominator)


def _rows(A):
    # explicit zero entries are kept: the elimination must drop them itself
    return [{j: _scalar(a) for j, a in enumerate(r)} for r in A]


def _times(A, x):
    out = []
    for r in A:
        acc = Scalar.zero()
        for a, v in zip(r, x):
            acc = acc + _scalar(a) * v
        out.append(acc)
    return out


def test_solve_linear_against_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    from nccalc.linalg import solve_linear

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(_systems()())
    def check(case):
        A, b = case
        M = sympy.Matrix(A)
        consistent = M.rank() == M.row_join(sympy.Matrix(b)).rank()
        sol = solve_linear([(r, _scalar(c)) for r, c in zip(_rows(A), b)], len(A[0]))
        assert (sol is not None) == consistent
        if sol is None:
            return
        assert _times(A, sol) == [_scalar(c) for c in b]
        pivots = set(M.rref()[1])
        assert all(v.is_zero() for j, v in enumerate(sol) if j not in pivots)

    check()


def test_nullspace_vector_against_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    from nccalc.linalg import nullspace_vector

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(_systems()())
    def check(case):
        A, _ = case
        vec = nullspace_vector(_rows(A), len(A[0]))
        assert (vec is None) == (sympy.Matrix(A).rank() == len(A[0]))
        if vec is None:
            return
        assert len(vec) == len(A[0])
        assert not all(v.is_zero() for v in vec)
        assert all(v.is_zero() for v in _times(A, vec))

    check()


# -- permutation-sum oracle for the adjugate ---------------------------------


def test_det_adjugate_against_permutation_sums():
    """det and every cofactor of sparse matrices over C[x] with parameters
    equal permutation sums of the matrix and of its minors."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from nccalc.linalg import det_adjugate

    pres = Presentation(["x"], params=["p", "q"])
    entries = st.sampled_from(("0", "0", "1", "-2", "x", "x + p", "q*x^2 - 1", "p/q"))

    @hypothesis.settings(**_ORACLE)
    @hypothesis.given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
    def check(rows):
        n = len(rows)
        M = [[pres.element(e) for e in row] for row in rows]
        det, adj = det_adjugate(pres, M)
        assert det == det_permanent_expansion(pres, M) == det_cofactor(pres, M)
        for i in range(n):
            for j in range(n):
                minor = [[M[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
                cof = det_permanent_expansion(pres, minor) if minor else pres.one
                assert adj[j][i] == (cof if (i + j) % 2 == 0 else -cof), (i, j)

    check()
