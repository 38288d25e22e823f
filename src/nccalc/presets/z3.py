"""Preset: the Z_3 root-of-unity calculus."""

from __future__ import annotations

from ..algebra import Presentation
from ..calculus import DirectionSet
from .base import PresetBundle, PresetError
from .catalog import _calculus


def _build_z3():
    # q is a central cube root of unity adjoined to the algebra:
    # q^2 = -1 - q forces q^3 = 1
    pres = Presentation(
        ["q", "x", "y"], invertible={"x", "y"},
        rules=[("q^2", "-1 - q"),
               ("x*q", "q*x"), ("x^-1*q", "q*x^-1"),
               ("y*q", "q*y"), ("y^-1*q", "q*y^-1")],
        name="z3_root_of_unity")
    lam = pres.parse("-(2 + q)/3")  # 1/(q-1) in Q[q]/(q^2+q+1)
    if not (pres.parse("q - 1") * lam).is_one():
        raise PresetError("z3 twist element is not 1/(q-1)")
    zeta_c = pres.parse("(1 + q)/3")  # 1/(q-1)^2
    # q^-1 = q^2, so each image of x^-1 and y^-1 is stated, not searched for
    turn = {"x": "q*x", "x^-1": "q^2*x^-1", "y": "q^2*y", "y^-1": "q*y^-1"}
    back = {"x": "q^2*x", "x^-1": "q*x^-1", "y": "q*y", "y^-1": "q^2*y^-1"}
    z3 = DirectionSet.from_group({"1": 1, "2": 2}, lambda a, b: (a + b) % 3, 0)
    spec = _calculus(pres, z3,
                     {"1": (turn, back), "2": (back, turn)}, lambdas={"1": lam, "2": lam},
                     two_forms=dict(
                         basis=[("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")],
                         reduction={},
                         delta_table={"1": {("2", "2"): lam}, "2": {("1", "1"): lam}},
                         zeta={("1", "2"): zeta_c, ("2", "1"): zeta_c}))

    def extras():
        # quotient by the constants: x^3 = y^3 = xy = yx = 1, so y = x^2
        return {"quotient": Presentation(["q", "x"], rules=[("q^2", "-1 - q"), ("x*q", "q*x"),
                                                            ("x^3", "1")], name="z3_quotient")}

    return PresetBundle(spec, extras=extras)
