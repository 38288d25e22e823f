"""Presets: the quantum plane family y x = q^-1 x y and the quantum torus."""

from __future__ import annotations

from ..algebra import Presentation
from ..scalar import params as declare_params
from .catalog import _calculus, _plane, _scaling


def _qplane(name, extra_params, phi1, phi2, invertible=(), **options):
    """y x = q^-1 x y, with phi_1 and phi_2 the scalings phi1 and phi2."""
    pres = Presentation(["x", "y"], params=["q"] + extra_params,
                        invertible=invertible,
                        rules=[("y*x", "q^-1 * x*y")] + (
                            [("y^-1*x", "q * x*y^-1"),
                             ("y*x^-1", "q * x^-1*y"),
                             ("y^-1*x^-1", "q^-1 * x^-1*y^-1")] if invertible else []),
                        name=name)
    return _calculus(pres, _plane(), {"1": _scaling(pres, phi1), "2": _scaling(pres, phi2)},
                     **options)


def _build_qplane_a():
    r = "(p*q)^-1"
    return _qplane("quantum_plane_a", ["p"], {"x": r, "y": r}, {"y": r},
                   side_conditions=("p*q != 1", "q != 0", "p != 0"))


def _build_qplane_b():
    # case b: gamma = alpha, beta = 1
    return _qplane("quantum_plane_b", ["alpha", "delta"],
                   {"x": "alpha^-1"}, {"x": "alpha^-1", "y": "delta^-1"},
                   side_conditions=("alpha != 1", "delta != 1", "alpha != delta"))


def _build_qplane_c():
    # case c: beta = gamma = 1
    return _qplane("quantum_plane_c", ["alpha", "delta"], {"x": "alpha^-1"}, {"y": "delta^-1"},
                   side_conditions=("alpha != 1", "delta != 1"))


def _build_quantum_torus():
    t1, t2 = declare_params("t1 t2")
    return _qplane("quantum_torus", ["alpha", "beta", "gamma", "delta", "t1", "t2"],
                   {"x": "alpha^-1", "y": "beta^-1"}, {"x": "gamma^-1", "y": "delta^-1"},
                   invertible={"x", "y"}, weights={"1": t1, "2": t2},
                   side_conditions=("A*D - B*C != 0 with A=(1-alpha)/t1 etc.",
                                    "faithful action: (alpha,beta) != (1,1) != (gamma,delta)"))
