"""Preset: the bicovariant calculus on GL_pq(2)."""

from __future__ import annotations

from ..algebra import Presentation
from ..calculus import DirectionSet
from ..scalar import Scalar, params as declare_params
from .base import PresetBundle
from .catalog import _calculus, _scaling


def _gl_pres(name="glpq2"):
    return Presentation(
        ["a", "b", "c", "d"], params=["p", "q"], invertible={"b", "c"},
        rules=[
            ("b*a", "p^-1 * a*b"), ("c*a", "q^-1 * a*c"), ("c*b", "(p/q) * b*c"),
            ("d*b", "q^-1 * b*d"), ("d*c", "p^-1 * c*d"),
            ("d*a", "a*d - (p - q^-1) * b*c"),
            ("b^-1*a", "p * a*b^-1"), ("c^-1*a", "q * a*c^-1"),
            ("c*b^-1", "(q/p) * b^-1*c"), ("c^-1*b", "(q/p) * b*c^-1"),
            ("c^-1*b^-1", "(p/q) * b^-1*c^-1"),
            ("d*b^-1", "q * b^-1*d"), ("d*c^-1", "p * c^-1*d"),
        ], name=name)


GL_ALPHA = {"1": {"a": "(p*q)", "b": "1", "c": "(p*q)", "d": "1"},
            "2": {"a": "(p*q)", "b": "q", "c": "p", "d": "1"},
            "3": {"a": "(p*q)", "b": "q", "c": "p", "d": "1"},
            "4": {"a": "(p*q)", "b": "(p*q)", "c": "1", "d": "1"}}


def _gl_frame(pres):
    from ..frame import ThetaFrame  # here, so a load that reads no frame never imports it

    r = "(p*q)"
    comm = {
        "a": {("t1", "t1"): f"{r}*a", ("t1", "t3"): f"({r}-1)*b",
              ("t2", "t2"): "q*a", ("t2", "t4"): f"p^-1*({r}-1)*b",
              ("t3", "t3"): "p*a", ("t4", "t4"): "a"},
        "b": {("t1", "t1"): "b", ("t1", "t2"): f"({r}-1)*a",
              ("t1", "t4"): f"{r}^-1*({r}-1)^2*b",
              ("t2", "t2"): "q*b",
              ("t3", "t3"): "p*b", ("t3", "t4"): f"q^-1*({r}-1)*a",
              ("t4", "t4"): f"{r}*b"},
        "c": {("t1", "t1"): f"{r}*c", ("t1", "t3"): f"({r}-1)*d",
              ("t2", "t2"): "q*c", ("t2", "t4"): f"p^-1*({r}-1)*d",
              ("t3", "t3"): "p*c", ("t4", "t4"): "c"},
        "d": {("t1", "t1"): "d", ("t1", "t2"): f"({r}-1)*c",
              ("t1", "t4"): f"{r}^-1*({r}-1)^2*d",
              ("t2", "t2"): "q*d",
              ("t3", "t3"): "p*d", ("t3", "t4"): f"q^-1*({r}-1)*c",
              ("t4", "t4"): f"{r}*d"},
    }
    d_images = {"a": {"t1": "a", "t3": "b"},
                "b": {"t2": "a", "t4": "b"},
                "c": {"t1": "c", "t3": "d"},
                "d": {"t2": "c", "t4": "d"}}
    return ThetaFrame(pres, ["t1", "t2", "t3", "t4"], comm, d_images)


def _gl_thetas(frame):
    pres = frame.pres
    r = "(p*q)"
    inv = f"({r}-1)^-1"
    return {
        "1": frame.form({"t1": f"{inv}*c^-1*b^-1*b*c",
                         "t2": f"-{inv}*p^-1*c^-1*b^-1*a*c",
                         "t3": f"{inv}*c^-1*b^-1*b*d",
                         "t4": f"-{inv}*p^-1*c^-1*b^-1*a*d"}),
        "2": frame.form({"t2": f"q*{inv}*c^-1*b^-1*c",
                         "t4": f"q*{inv}*c^-1*b^-1*d"}),
        "3": frame.form({"t3": f"-(p*({r}-1))^-1*c^-1*b^-1*b",
                         "t4": f"(p*({r}-1))^-1*{r}^-1*c^-1*b^-1*a"}),
        "4": frame.form({"t4": f"-(p*({r}-1))^-1*c^-1*b^-1*(a*d - p*b*c)"}),
    }


def _build_glpq2():
    pres = _gl_pres()
    r_inv = (declare_params("p") * Scalar.param("q")).inverse()
    spec = _calculus(pres, DirectionSet(["1", "2", "3", "4"]),
                     {s: _scaling(pres, row) for s, row in GL_ALPHA.items()},
                     lambdas={"1": 1, "2": "a", "3": "d", "4": 1},
                     theta_scalings={(s, "2"): r_inv for s in "1234"},
                     side_conditions=("p*q != 1", "b, c invertible", "p != 0", "q != 0"))

    def extras():
        frame = _gl_frame(pres)
        return {"frame": frame, "thetas": _gl_thetas(frame),
                "determinant": pres.parse("a*d - p*b*c")}

    return PresetBundle(spec, extras=extras)
