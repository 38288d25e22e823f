"""Presets: the Heisenberg calculus and the h-deformed plane."""

from __future__ import annotations

from ..algebra import Presentation
from ..calculus import DirectionSet
from ..scalar import Scalar, params as declare_params
from .catalog import _calculus, _plane, _scaling


def _build_heisenberg():
    pres = Presentation(["x", "y"], params=["h", "a", "b"],
                        rules=[("y*x", "x*y - h")], name="heisenberg")
    a, b = declare_params("a b")
    return _calculus(pres, _plane(), {"1": ({"x": "x + a"}, {"x": "x - a"}),
                                      "2": ({"y": "y + b"}, {"y": "y - b"})},
                     weights={"1": a, "2": b}, side_conditions=("a != 0", "b != 0"))


def _hplane_pres(params, name):
    return Presentation(["y", "x"], params=params, invertible={"y"},
                        rules=[("x*y", "y*x + h*y^2"),
                               ("x*y^-1", "y^-1*x - h")],
                        name=name)


_H_SHIFT = ({"x": "x + p*y"}, {"x": "x - p*y"})


def _build_h_plane():
    pres = _hplane_pres(["h", "p", "r", "t1", "t2"], "h_plane")
    t1, t2 = declare_params("t1 t2")
    return _calculus(pres, _plane(),
                     {"1": _H_SHIFT, "2": _scaling(pres, {"x": "r^-1", "y": "r^-1"})},
                     weights={"1": t1, "2": t2}, side_conditions=("p != 0", "r != 0", "r != 1"))


def _build_h_plane_r1():
    # the r -> 1 endpoint: direction 2 becomes the Euler operator, realized
    # as the twisted inner derivation with lambda_2 = h^-1 y^-1 x
    return _calculus(_hplane_pres(["h", "p", "t1"], "h_plane_r1"), DirectionSet(["1", "2"]),
                     {"1": _H_SHIFT, "2": ({}, {})},
                     lambdas={"1": "t1^-1", "2": "h^-1*y^-1*x"},
                     side_conditions=("h != 0", "t1 != 0"),
                     two_forms=dict(basis=[("1", "2")],
                                    reduction={("2", "1"): [(-Scalar.one(), ("1", "2"))],
                                               ("1", "1"): [], ("2", "2"): []},
                                    delta_table={"1": {("1", "2"): "p/h"}},
                                    zeta={}))
