"""The preset catalog: every worked example as a calculus spec.

Each example is stated by its automorphisms, under the rules of an
`[automorphisms]` line of a definition file: one `(images, inverse
images)` pair per direction, and a generator without an image is fixed.
`_calculus` verifies each pair and names the spec after its presentation.
A load builds and checks what the calculus needs: the automorphisms,
local confluence of the rewrite system and the 2-form structure.  The
fixtures live in `presets.fixtures`, which a bundle imports the first time
its fixtures are read (`preset run`, `preset show`); objects that only
fixtures and tests read (the z3 quotient algebra, the GL_pq(2) frame) are
`extras`, built on first use, once per bundle.
"""

from __future__ import annotations

import functools

from ..algebra import (Presentation, check_local_confluence, identity_morphism, tensor_product,
                       verify_morphism)
from ..calculus import CalculusSpec, DirectionSet, GradedForm
from ..scalar import Scalar, params as declare_params, parse_scalar
from .base import PresetBundle, PresetError

_BUILDERS = {}


def _register(id_):
    def deco(fn):
        _BUILDERS[id_] = fn
        return fn
    return deco


PRESET_IDS = ()  # filled at module end


@functools.lru_cache(maxsize=None)
def load_preset(id_) -> PresetBundle:
    try:
        builder = _BUILDERS[id_]
    except KeyError:
        raise PresetError(f"unknown preset {id_!r}; known: {', '.join(sorted(_BUILDERS))}") \
            from None
    bundle = builder()  # a spec, or a bundle when the preset has extras
    if not isinstance(bundle, PresetBundle):
        bundle = PresetBundle(bundle)
    conf = check_local_confluence(bundle.presentation)
    if not conf.ok:
        raise PresetError(f"preset {id_} presentation is not locally confluent:\n{conf}")
    return bundle


def _calculus(pres, directions, automorphisms, **options):
    """The calculus named after pres, with the automorphism of each label
    verified from its (images, inverse images) pair."""
    autos = {label: verify_morphism(pres, images, inverse_images=inverse)
             for label, (images, inverse) in automorphisms.items()}
    return CalculusSpec(pres, directions, autos, name=pres.name, **options)


def _scaling(pres, scales):
    """g -> c*g for each generator g with its scale c (text) in scales, and
    the inverse g -> c^-1*g: one (images, inverse images) pair."""
    factor = {c: parse_scalar(c, pres.params) for c in dict.fromkeys(scales.values())}
    inverse = {c: f.inverse() for c, f in factor.items()}
    return ({g: pres.gen(g) * factor[c] for g, c in scales.items()},
            {g: pres.gen(g) * inverse[c] for g, c in scales.items()})


def _plane():
    return DirectionSet.from_group({"1": (1, 0), "2": (0, 1)},
                                   lambda a, b: (a[0] + b[0], a[1] + b[1]), (0, 0))


# ---------------------------------------------------------------------------
# polynomial shift calculi on C[x]


def _poly_shift(shifts, name):
    cx = Presentation(["x"], name=name)
    directions = DirectionSet.from_group(shifts, lambda a, b: a + b, 0)
    return cx, _calculus(cx, directions, {label: ({"x": f"x + {i}"}, {"x": f"x - {i}"})
                                          for label, i in shifts.items()})


@_register("poly_shift_S12")
def _build_poly_shift_s12():
    return _poly_shift({"1": 1, "2": 2}, "poly_shift_S12")[1]


@_register("poly_shift_sym")
def _build_poly_shift_sym():
    return _poly_shift({"-1": -1, "1": 1}, "poly_shift_sym")[1]


# ---------------------------------------------------------------------------
# quantum plane family


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


@_register("quantum_plane_a")
def _build_qplane_a():
    r = "(p*q)^-1"
    return _qplane("quantum_plane_a", ["p"], {"x": r, "y": r}, {"y": r},
                   side_conditions=("p*q != 1", "q != 0", "p != 0"))


@_register("quantum_plane_b")
def _build_qplane_b():
    # case b: gamma = alpha, beta = 1
    return _qplane("quantum_plane_b", ["alpha", "delta"],
                   {"x": "alpha^-1"}, {"x": "alpha^-1", "y": "delta^-1"},
                   side_conditions=("alpha != 1", "delta != 1", "alpha != delta"))


@_register("quantum_plane_c")
def _build_qplane_c():
    # case c: beta = gamma = 1
    return _qplane("quantum_plane_c", ["alpha", "delta"], {"x": "alpha^-1"}, {"y": "delta^-1"},
                   side_conditions=("alpha != 1", "delta != 1"))


@_register("quantum_torus")
def _build_quantum_torus():
    t1, t2 = declare_params("t1 t2")
    return _qplane("quantum_torus", ["alpha", "beta", "gamma", "delta", "t1", "t2"],
                   {"x": "alpha^-1", "y": "beta^-1"}, {"x": "gamma^-1", "y": "delta^-1"},
                   invertible={"x", "y"}, weights={"1": t1, "2": t2},
                   side_conditions=("A*D - B*C != 0 with A=(1-alpha)/t1 etc.",
                                    "faithful action: (alpha,beta) != (1,1) != (gamma,delta)"))


# ---------------------------------------------------------------------------
# Heisenberg and the h-deformed plane


@_register("heisenberg")
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


@_register("h_plane")
def _build_h_plane():
    pres = _hplane_pres(["h", "p", "r", "t1", "t2"], "h_plane")
    t1, t2 = declare_params("t1 t2")
    return _calculus(pres, _plane(),
                     {"1": _H_SHIFT, "2": _scaling(pres, {"x": "r^-1", "y": "r^-1"})},
                     weights={"1": t1, "2": t2}, side_conditions=("p != 0", "r != 0", "r != 1"))


@_register("h_plane_r1")
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


# ---------------------------------------------------------------------------
# the Z_3 root-of-unity calculus


@_register("z3_root_of_unity")
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
    turn, back = {"x": "q*x", "y": "q^2*y"}, {"x": "q^2*x", "y": "q*y"}
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


# ---------------------------------------------------------------------------
# group lattices (function algebras on finite groups)


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


for _id in _LATTICES:
    _register(_id)(functools.partial(_lattice, _id))


# ---------------------------------------------------------------------------
# twisted Heisenberg calculi


def _twisted_heisenberg(name, lambdas, **two_forms):
    """phi_s = id on the Weyl algebra y x = x y - 1, with twist elements lambdas."""
    pres = Presentation(["x", "y"], rules=[("y*x", "x*y - 1")], name=name)
    ident = identity_morphism(pres)
    return CalculusSpec(pres, DirectionSet(list(lambdas)), dict.fromkeys(lambdas, ident),
                        lambdas=lambdas, name=name, two_forms=two_forms)


@_register("twisted_heisenberg_2")
def _build_twisted_h2():
    return _twisted_heisenberg("twisted_heisenberg_2", {"1": "-y", "2": "x"},
                               basis=[("1", "2")],
                               reduction={("2", "1"): [(-Scalar.one(), ("1", "2"))],
                                          ("1", "1"): [], ("2", "2"): []},
                               delta_table={}, zeta={("1", "2"): 1})


@_register("twisted_heisenberg_3")
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


# ---------------------------------------------------------------------------
# the bicovariant calculus on GL_pq(2)


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


@_register("glpq2")
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


# ---------------------------------------------------------------------------
# tensor-product realizations


@_register("tensor_qplane")
def _build_tensor_qplane():
    comm = Presentation(["u", "v"], params=["p", "q"],
                        rules=[("v*u", "u*v")], name="comm_uv")
    qpl = Presentation(["U", "V"], params=["q"],
                       rules=[("V*U", "q^-1 * U*V")], name="qplane_UV")
    pres = tensor_product(comm, qpl, name="tensor_qplane")
    r = "(p*q)^-1"
    return _calculus(pres, _plane(), {"1": _scaling(pres, {"u": r, "v": r}),
                                      "2": _scaling(pres, {"v": r})})


@_register("tensor_hplane")
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


PRESET_IDS = tuple(sorted(_BUILDERS))
