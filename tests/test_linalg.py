"""Exact linear algebra: the cofactor determinant against the permutation sum."""

import pytest

from nccalc.algebra import Presentation, verify_morphism
from nccalc.calculus import CalculusSpec, DirectionSet
from nccalc.linalg import det_cofactor, det_permanent_expansion


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
