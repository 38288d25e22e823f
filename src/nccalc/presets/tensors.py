"""Presets: the tensor-product realizations of the quantum and h-deformed planes."""

from __future__ import annotations

from ..algebra import Generator, Presentation, RewriteRule
from ..scalar import Scalar, params as declare_params
from .catalog import _calculus, _plane, _scaling


def tensor_product(p1: Presentation, p2: Presentation, name=None) -> Presentation:
    """Combined presentation in which the two factors commute elementwise."""
    names1 = {g.name for g in p1.generators}
    gens = list(p1.generators)
    rename = {}
    for g in p2.generators:
        nm = g.name
        while nm in names1 or nm in rename.values():
            nm += "_2"
        rename[g.name] = nm
        gens.append(Generator(nm, g.invertible))
    params = tuple(dict.fromkeys(p1.params + p2.params))
    pres = Presentation(gens, params, name=name)
    off = 2 * len(p1.generators)

    def shift(w):
        return tuple(l + off for l in w)

    rules = list(p1.rules)
    for r in p2.rules:
        rules.append(RewriteRule(shift(r.lhs), tuple((shift(w), c) for w, c in r.rhs)))
    one = Scalar.one()
    for j in range(len(p1.generators), len(gens)):
        for i in range(len(p1.generators)):
            for lj in pres.letters(j):
                for li in pres.letters(i):
                    rules.append(RewriteRule((lj, li), (((li, lj), one),)))
    pres._install_rules(rules)
    return pres


def _build_tensor_qplane():
    comm = Presentation(["u", "v"], params=["p", "q"],
                        rules=[("v*u", "u*v")], name="comm_uv")
    qpl = Presentation(["U", "V"], params=["q"],
                       rules=[("V*U", "q^-1 * U*V")], name="qplane_UV")
    pres = tensor_product(comm, qpl, name="tensor_qplane")
    r = "(p*q)^-1"
    return _calculus(pres, _plane(), {"1": _scaling(pres, {"u": r, "v": r}),
                                      "2": _scaling(pres, {"v": r})})


def _build_tensor_hplane():
    comm = Presentation(["v", "u"], params=["h", "hp", "r", "t1"], invertible={"v"},
                        rules=[("u*v", "v*u"), ("u*v^-1", "v^-1*u")], name="comm_vu")
    hpl = Presentation(["V", "U"], params=["h"], invertible={"V"},
                       rules=[("U*V", "V*U + h*V^2"),
                              ("U*V^-1", "V^-1*U - h")], name="hplane_VU")
    pres = tensor_product(comm, hpl, name="tensor_hplane")
    r, t1 = declare_params("r t1")
    pt = "(h + hp)"  # shift parameter; hp plays the role of h'
    return _calculus(pres, _plane(), {"1": ({"u": f"u + {pt}*v"}, {"u": f"u - {pt}*v"}),
                                      "2": _scaling(pres, {"u": "r^-1", "v": "r^-1"})},
                     weights={"1": t1, "2": 1 - r},
                     side_conditions=("r != 0", "r != 1 before the limit", "h + hp != 0"))
