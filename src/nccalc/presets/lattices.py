"""Presets: group lattices, the function algebras on finite groups."""

from __future__ import annotations

from ..algebra import Presentation
from ..calculus import DirectionSet, GradedForm
from .base import PresetError
from .catalog import _calculus


def _group_inverse(elements, mul, unit):
    """g -> g^-1 in the finite group with these elements and product."""
    def inverse_of(g):
        for h in elements:
            if mul(g, h) == unit:
                return h
        raise PresetError("group element without inverse")
    return inverse_of


def make_group_lattice(name, elements, mul, unit, directions):
    """Function algebra on a finite group with right-translation pullbacks.

    elements: ordered list of group elements (hashable); the unit must be
    included.  directions maps labels to elements of the group.  The last
    element's idempotent is eliminated via sum_g e_g = 1.
    """
    elements = list(elements)
    n = len(elements)
    idx = {g: i for i, g in enumerate(elements)}
    gens = [f"e{i}" for i in range(n - 1)]
    rules = []
    for i in range(n - 1):
        for j in range(n - 1):
            rules.append((f"e{i}*e{j}", f"e{i}" if i == j else "0"))
    pres = Presentation(gens, rules=rules, name=name)
    last = " - ".join(["1"] + gens)

    def e_poly(i):
        return pres.parse(f"e{i}") if i < n - 1 else pres.parse(last)

    def pullback(s):  # e_g -> e_{g s}
        return {f"e{i}": e_poly(idx[mul(elements[i], s)]) for i in range(n - 1)}

    inverse_of = _group_inverse(elements, mul, unit)
    autos = {label: (pullback(inverse_of(s)), pullback(s)) for label, s in directions.items()}
    ds = DirectionSet.from_group(dict(directions), mul, unit)
    return pres, _calculus(pres, ds, autos), elements, idx


def _lattice_theta_images(spec, directions, mul, inverse_of):
    """R*_s moves theta^u to theta^{s u s^-1}: label -> {label: theta image}."""
    out = {}
    for sl, s in directions.items():
        m = {}
        for ul, u in directions.items():
            conj = mul(mul(s, u), inverse_of(s))
            target = next(l for l, g in directions.items() if g == conj)
            m[ul] = GradedForm.theta(spec, target)
        out[sl] = m
    return out


def _perm_mul(a, b):
    # (a*b)(i) = a(b(i)): right action pullback convention fixed in the builder
    return tuple(a[b[i]] for i in range(len(a)))


# S_3 as images of (0, 1, 2): e, the transpositions (12), (13), (23), the 3-cycles
_S3 = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]

# id -> (group elements, product, unit, directions, wording of the ad(S)S fixture)
_LATTICES = {
    "group_lattice_z3": ([0, 1, 2], lambda a, b: (a + b) % 3, 0, {"1": 1, "2": 2},
                         "ad(S)S inside S"),
    "group_lattice_s3": (_S3, _perm_mul, _S3[0],
                         {"t12": _S3[1], "t13": _S3[2], "t23": _S3[3]},
                         "ad(S)S inside S (transpositions)"),
}


def _lattice(id_):
    elements, mul, unit, directions, _ = _LATTICES[id_]
    return make_group_lattice(id_, elements, mul, unit, directions)[1]


def _build_lattice_z3():
    return _lattice("group_lattice_z3")


def _build_lattice_s3():
    return _lattice("group_lattice_s3")
