"""Presets: twisted Heisenberg calculi, phi_s = id with twist elements."""

from __future__ import annotations

from ..algebra import Presentation, identity_morphism
from ..calculus import CalculusSpec, DirectionSet
from ..scalar import Scalar


def _twisted_heisenberg(name, lambdas, **two_forms):
    """phi_s = id on the Weyl algebra y x = x y - 1, with twist elements lambdas."""
    pres = Presentation(["x", "y"], rules=[("y*x", "x*y - 1")], name=name)
    ident = identity_morphism(pres)
    return CalculusSpec(pres, DirectionSet(list(lambdas)), dict.fromkeys(lambdas, ident),
                        lambdas=lambdas, name=name, two_forms=two_forms)


def _build_twisted_h2():
    return _twisted_heisenberg("twisted_heisenberg_2", {"1": "-y", "2": "x"},
                               basis=[("1", "2")],
                               reduction={("2", "1"): [(-Scalar.one(), ("1", "2"))],
                                          ("1", "1"): [], ("2", "2"): []},
                               delta_table={}, zeta={("1", "2"): 1})


def _build_twisted_h3():
    minus = -Scalar.one()
    return _twisted_heisenberg("twisted_heisenberg_3", {"1": "-y", "2": "x", "3": "y*x"},
                               basis=[("1", "2"), ("2", "1"), ("1", "3"), ("2", "3")],
                               reduction={("1", "1"): [], ("2", "2"): [], ("3", "3"): [],
                                          ("3", "1"): [(minus, ("1", "3"))],
                                          ("3", "2"): [(minus, ("2", "3"))]},
                               delta_table={"1": {("1", "3"): -1}, "2": {("2", "3"): 1},
                                            "3": {("1", "2"): -1, ("2", "1"): -1}},
                               zeta={("2", "1"): -1})
