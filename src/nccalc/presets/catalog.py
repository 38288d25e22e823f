"""The preset catalog: every worked example as a calculus spec and fixtures.

A load builds and checks what the calculus needs: the automorphisms,
local confluence of the rewrite system and the 2-form structure.  The
fixtures run under `preset run`; objects that only fixtures and tests
read (the z3 quotient algebra, the GL_pq(2) frame) are built on first use,
once per bundle.
"""

from __future__ import annotations

import functools

from ..algebra import Presentation, check_local_confluence, verify_morphism
from ..calculus import (CalculusSpec, DirectionSet, GradedForm,
                        check_differentiability, constants, cyclic_group,
                        delta, differential, d_form, is_central_one_form,
                        central_one_forms_probe, move_right,
                        solve_theta_in_differentials, theta_solution_form,
                        vartheta, zn_group, z_group)
from ..scalar import Scalar, params as declare_params
from .base import PresetBundle, PresetError, fcheck, feq, once

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
    bundle = builder()
    conf = check_local_confluence(bundle.presentation)
    if not conf.ok:
        raise PresetError(f"preset {id_} presentation is not locally confluent:\n{conf}")
    return bundle


def _theta(spec, *labels):
    return GradedForm.theta(spec, *labels)


# ---------------------------------------------------------------------------
# polynomial shift calculi on C[x]


def _poly_shift(shifts, name):
    cx = Presentation(["x"], name=name)
    autos = {}
    for label, i in shifts.items():
        autos[label] = verify_morphism(cx, {"x": f"x + {i}" if i >= 0 else f"x - {-i}"},
                                       inverse_images={"x": f"x - {i}" if i >= 0 else f"x + {-i}"})
    return cx, CalculusSpec(cx, z_group(shifts), autos, name=name)


@_register("poly_shift_S12")
def _build_poly_shift_s12():
    cx, spec = _poly_shift({"1": 1, "2": 2}, "poly_shift_S12")
    x = cx.gen("x")
    dx = lambda: differential(spec, x)
    dx2 = lambda: differential(spec, x * x)

    def theta_solution():
        sol = solve_theta_in_differentials(spec, [x, x * x])
        if not sol.ok:
            return False, "matrix not invertible"
        t1 = theta_solution_form(spec, sol, [x, x * x], "1")
        t2 = theta_solution_form(spec, sol, [x, x * x], "2")
        want1 = (2 * (1 + x)) * dx() - dx2()
        want2 = (-(Scalar.from_int(1) / 2) - x) * dx() + (Scalar.from_int(1) / 2) * dx2()
        ok = (t1 == _theta(spec, "1") == want1 and t2 == _theta(spec, "2") == want2)
        return ok, f"theta1 = {want1}; theta2 = {want2}"

    fixtures = [
        fcheck("theta1 = 2(1+x)dx - dx^2 and theta2 = -(1/2+x)dx + dx^2/2", theta_solution),
        feq("Delta(theta1) = 0", lambda: delta(spec, _theta(spec, "1")),
            lambda: GradedForm.zero(spec)),
        feq("Delta(theta2) = theta1^2", lambda: delta(spec, _theta(spec, "2")),
            lambda: _theta(spec, "1", "1")),
        feq("theta2 theta1 = -theta1 theta2", lambda: _theta(spec, "2").wedge(_theta(spec, "1")),
            lambda: -_theta(spec, "1", "2")),
        feq("theta2^2 = 0", lambda: _theta(spec, "2").wedge(_theta(spec, "2")),
            lambda: GradedForm.zero(spec)),
        feq("zeta = 0", lambda: spec.two_forms.zeta_form(), lambda: GradedForm.zero(spec)),
        feq("d(dx) = 0", lambda: d_form(spec, dx()), lambda: GradedForm.zero(spec)),
    ]
    return PresetBundle(spec, fixtures)


@_register("poly_shift_sym")
def _build_poly_shift_sym():
    cx, spec = _poly_shift({"-1": -1, "1": 1}, "poly_shift_sym")
    x = cx.gen("x")
    fixtures = [
        feq("vartheta = dx^2 - 2x dx", lambda: vartheta(spec),
            lambda: differential(spec, x * x) - (2 * x) * differential(spec, x)),
        feq("zeta = theta[-1]theta[1] + theta[1]theta[-1]",
            lambda: spec.two_forms.zeta_form(),
            lambda: _theta(spec, "-1", "1") + _theta(spec, "1", "-1")),
        feq("theta[-1]^2 = 0", lambda: _theta(spec, "-1").wedge(_theta(spec, "-1")),
            lambda: GradedForm.zero(spec)),
        feq("theta[1]^2 = 0", lambda: _theta(spec, "1").wedge(_theta(spec, "1")),
            lambda: GradedForm.zero(spec)),
        feq("Delta = 0 on theta[1]", lambda: delta(spec, _theta(spec, "1")),
            lambda: GradedForm.zero(spec)),
        feq("[zeta, x] = 0",
            lambda: spec.two_forms.zeta_form() * x - x * spec.two_forms.zeta_form(),
            lambda: GradedForm.zero(spec)),
    ]
    return PresetBundle(spec, fixtures)


# ---------------------------------------------------------------------------
# quantum plane family


def _qplane_pres(extra_params, invertible=(), name="qplane"):
    return Presentation(["x", "y"], params=["q"] + extra_params,
                        invertible=invertible,
                        rules=[("y*x", "q^-1 * x*y")] + (
                            [("y^-1*x", "q * x*y^-1"),
                             ("y*x^-1", "q * x^-1*y"),
                             ("y^-1*x^-1", "q^-1 * x^-1*y^-1")] if invertible else []),
                        name=name)


def _qplane_spec(pres, phi1_imgs, phi1_inv, phi2_imgs, phi2_inv, name,
                 weights=None, side_conditions=()):
    phi1 = verify_morphism(pres, phi1_imgs, inverse_images=phi1_inv)
    phi2 = verify_morphism(pres, phi2_imgs, inverse_images=phi2_inv)
    return CalculusSpec(pres, zn_group({"1": (1, 0), "2": (0, 1)}),
                        {"1": phi1, "2": phi2}, weights=weights,
                        side_conditions=side_conditions, name=name)


def _qplane_two_form_fixtures(spec):
    return [
        feq("theta1^2 = 0", lambda: _theta(spec, "1").wedge(_theta(spec, "1")),
            lambda: GradedForm.zero(spec)),
        feq("theta2^2 = 0", lambda: _theta(spec, "2").wedge(_theta(spec, "2")),
            lambda: GradedForm.zero(spec)),
        feq("theta1 theta2 + theta2 theta1 = 0",
            lambda: _theta(spec, "1").wedge(_theta(spec, "2"))
            + _theta(spec, "2").wedge(_theta(spec, "1")),
            lambda: GradedForm.zero(spec)),
        feq("d(vartheta) = 0", lambda: d_form(spec, vartheta(spec)),
            lambda: GradedForm.zero(spec)),
        feq("vartheta^2 = 0", lambda: vartheta(spec).wedge(vartheta(spec)),
            lambda: GradedForm.zero(spec)),
    ]


@_register("quantum_plane_a")
def _build_qplane_a():
    pres = _qplane_pres(["p"], name="quantum_plane_a")
    spec = _qplane_spec(
        pres,
        {"x": "(p*q)^-1 * x", "y": "(p*q)^-1 * y"}, {"x": "p*q*x", "y": "p*q*y"},
        {"x": "x", "y": "(p*q)^-1 * y"}, {"x": "x", "y": "p*q*y"},
        "quantum_plane_a",
        side_conditions=("p*q != 1", "q != 0", "p != 0"))
    x, y = pres.gen("x"), pres.gen("y")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    pq = pres.parse("p*q").as_scalar()
    q = pres.parse("q").as_scalar()
    fixtures = [
        feq("x dx = pq dx x", lambda: x * dx(), lambda: pq * (dx() * x)),
        feq("y dx = p dx y", lambda: y * dx(), lambda: (pq / q) * (dx() * y)),
        feq("y dy = pq dy y", lambda: y * dy(), lambda: pq * (dy() * y)),
        feq("x dy = q dy x + (pq-1) dx y",
            lambda: x * dy(), lambda: q * (dy() * x) + (pq - 1) * (dx() * y)),
        *_qplane_two_form_fixtures(spec),
        fcheck("phi_s differentiable with phi_s(theta) = theta",
               lambda: (check_differentiability(spec, spec.phi("1")).ok
                        and check_differentiability(spec, spec.phi("2")).ok)),
        fcheck("theta1 is not central (generic parameters)",
               lambda: not is_central_one_form(spec, _theta(spec, "1"))[0]),
    ]
    return PresetBundle(spec, fixtures)


@_register("quantum_plane_b")
def _build_qplane_b():
    # case b: gamma = alpha, beta = 1
    pres = _qplane_pres(["alpha", "delta"], name="quantum_plane_b")
    spec = _qplane_spec(
        pres,
        {"x": "alpha^-1 * x", "y": "y"}, {"x": "alpha*x", "y": "y"},
        {"x": "alpha^-1 * x", "y": "delta^-1 * y"}, {"x": "alpha*x", "y": "delta*y"},
        "quantum_plane_b",
        side_conditions=("alpha != 1", "delta != 1", "alpha != delta"))
    x, y = pres.gen("x"), pres.gen("y")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    al = pres.parse("alpha").as_scalar()
    de = pres.parse("delta").as_scalar()
    q = pres.parse("q").as_scalar()
    fixtures = [
        feq("x dx = alpha dx x", lambda: x * dx(), lambda: al * (dx() * x)),
        feq("y dx = q^-1 dx y + (alpha-1) dy x",
            lambda: y * dx(), lambda: (Scalar.one() / q) * (dx() * y) + (al - 1) * (dy() * x)),
        feq("y dy = delta dy y", lambda: y * dy(), lambda: de * (dy() * y)),
        feq("x dy = q alpha dy x", lambda: x * dy(), lambda: (q * al) * (dy() * x)),
        *_qplane_two_form_fixtures(spec),
    ]
    return PresetBundle(spec, fixtures)


@_register("quantum_plane_c")
def _build_qplane_c():
    # case c: beta = gamma = 1
    pres = _qplane_pres(["alpha", "delta"], name="quantum_plane_c")
    spec = _qplane_spec(
        pres,
        {"x": "alpha^-1 * x", "y": "y"}, {"x": "alpha*x", "y": "y"},
        {"x": "x", "y": "delta^-1 * y"}, {"x": "x", "y": "delta*y"},
        "quantum_plane_c",
        side_conditions=("alpha != 1", "delta != 1"))
    x, y = pres.gen("x"), pres.gen("y")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    al = pres.parse("alpha").as_scalar()
    de = pres.parse("delta").as_scalar()
    q = pres.parse("q").as_scalar()
    fixtures = [
        feq("x dx = alpha dx x", lambda: x * dx(), lambda: al * (dx() * x)),
        feq("y dx = q^-1 dx y", lambda: y * dx(), lambda: (Scalar.one() / q) * (dx() * y)),
        feq("y dy = delta dy y", lambda: y * dy(), lambda: de * (dy() * y)),
        feq("x dy = q dy x", lambda: x * dy(), lambda: q * (dy() * x)),
        *_qplane_two_form_fixtures(spec),
    ]
    return PresetBundle(spec, fixtures)


@_register("quantum_torus")
def _build_quantum_torus():
    pres = _qplane_pres(["alpha", "beta", "gamma", "delta", "t1", "t2"],
                        invertible={"x", "y"}, name="quantum_torus")
    al, be, ga, de, t1, t2 = declare_params("alpha beta gamma delta t1 t2")
    spec = _qplane_spec(
        pres,
        {"x": "alpha^-1 * x", "y": "beta^-1 * y"}, {"x": "alpha*x", "y": "beta*y"},
        {"x": "gamma^-1 * x", "y": "delta^-1 * y"}, {"x": "gamma*x", "y": "delta*y"},
        "quantum_torus",
        weights={"1": t1, "2": t2},
        side_conditions=("A*D - B*C != 0 with A=(1-alpha)/t1 etc.",
                         "faithful action: (alpha,beta) != (1,1) != (gamma,delta)"))
    A, B = (1 - al) / t1, (1 - be) / t1
    C, D = (1 - ga) / t2, (1 - de) / t2
    det = A * D - B * C
    x, y = pres.gen("x"), pres.gen("y")
    xi, yi = pres.gen("x", -1), pres.gen("y", -1)
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    q = pres.parse("q").as_scalar()

    def theta_closed_form():
        sol = solve_theta_in_differentials(spec, [x, y])
        if not sol.ok:
            return False, "e_s(coords) matrix not invertible"
        t1f = theta_solution_form(spec, sol, [x, y], "1")
        t2f = theta_solution_form(spec, sol, [x, y], "2")
        want1 = det.inverse() * (D * (dx() * xi) - C * (dy() * yi))
        want2 = det.inverse() * (A * (dy() * yi) - B * (dx() * xi))
        ok = (t1f == _theta(spec, "1") == want1 and t2f == _theta(spec, "2") == want2)
        return ok, "theta closed form mismatch"

    fixtures = [
        fcheck("theta1 = (AD-BC)^-1 (D dx x^-1 - C dy y^-1), theta2 likewise",
               theta_closed_form),
        feq("x dx = (AD-BC)^-1 [(aAD-gBC) dx + (g-a) AC dy y^-1 x] x",
            lambda: x * dx(),
            lambda: (det.inverse() * ((al * A * D - ga * B * C) * dx()
                                      + ((ga - al) * A * C) * (dy() * (yi * x)))) * x),
        feq("y dx = (AD-BC)^-1 [q^-1 (bAD - dBC) dx y + (d-b) AC dy x]",
            lambda: y * dx(),
            lambda: det.inverse() * (((be * A * D - de * B * C) / q) * (dx() * y)
                                     + ((de - be) * A * C) * (dy() * x))),
    ]
    return PresetBundle(spec, fixtures)


# ---------------------------------------------------------------------------
# Heisenberg and the h-deformed plane


@_register("heisenberg")
def _build_heisenberg():
    pres = Presentation(["x", "y"], params=["h", "a", "b"],
                        rules=[("y*x", "x*y - h")], name="heisenberg")
    a, b = declare_params("a b")
    phi1 = verify_morphism(pres, {"x": "x + a", "y": "y"},
                           inverse_images={"x": "x - a", "y": "y"})
    phi2 = verify_morphism(pres, {"x": "x", "y": "y + b"},
                           inverse_images={"x": "x", "y": "y - b"})
    spec = CalculusSpec(pres, zn_group({"1": (1, 0), "2": (0, 1)}),
                        {"1": phi1, "2": phi2}, weights={"1": a, "2": b},
                        side_conditions=("a != 0", "b != 0"), name="heisenberg")
    x, y = pres.gen("x"), pres.gen("y")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    fixtures = [
        feq("dx = theta1", dx, lambda: _theta(spec, "1")),
        feq("dy = theta2", dy, lambda: _theta(spec, "2")),
        feq("[dx, x] = a dx", lambda: dx() * x - x * dx(), lambda: a * dx()),
        feq("[dx, y] = 0", lambda: dx() * y - y * dx(), lambda: GradedForm.zero(spec)),
        feq("[dy, x] = 0", lambda: dy() * x - x * dy(), lambda: GradedForm.zero(spec)),
        feq("[dy, y] = b dy", lambda: dy() * y - y * dy(), lambda: b * dy()),
        fcheck("phi_s differentiable with fixed thetas",
               lambda: (check_differentiability(spec, spec.phi("1")).ok
                        and check_differentiability(spec, spec.phi("2")).ok)),
        feq("e_1(x) = 1", lambda: spec.e("1", x), lambda: pres.one),
    ]
    return PresetBundle(spec, fixtures)


def _hplane_pres(params, name):
    return Presentation(["y", "x"], params=params, invertible={"y"},
                        rules=[("x*y", "y*x + h*y^2"),
                               ("x*y^-1", "y^-1*x - h")],
                        name=name)


@_register("h_plane")
def _build_h_plane():
    pres = _hplane_pres(["h", "p", "r", "t1", "t2"], "h_plane")
    p, r, h, t1, t2 = declare_params("p r h t1 t2")
    phi1 = verify_morphism(pres, {"x": "x + p*y", "y": "y"},
                           inverse_images={"x": "x - p*y", "y": "y"})
    phi2 = verify_morphism(pres, {"x": "r^-1*x", "y": "r^-1*y"},
                           inverse_images={"x": "r*x", "y": "r*y"})
    spec = CalculusSpec(pres, zn_group({"1": (1, 0), "2": (0, 1)}),
                        {"1": phi1, "2": phi2}, weights={"1": t1, "2": t2},
                        side_conditions=("p != 0", "r != 0", "r != 1"), name="h_plane")
    x, y = pres.gen("x"), pres.gen("y")
    yi = pres.gen("y", -1)
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    hp = p - h  # h' = p - h
    fixtures = [
        feq("dx = (p/t1) theta1 y + ((1-r)/t2) theta2 x",
            dx, lambda: (p / t1) * (_theta(spec, "1") * y)
            + ((1 - r) / t2) * (_theta(spec, "2") * x)),
        feq("dy = ((1-r)/t2) theta2 y",
            dy, lambda: ((1 - r) / t2) * (_theta(spec, "2") * y)),
        feq("f theta1 = theta1 f(x-py, y) on f = x",
            lambda: move_right(spec, ("1",), x), lambda: x - p * y),
        feq("f theta2 = theta2 f(rx, ry) on f = x",
            lambda: move_right(spec, ("2",), x), lambda: r * x),
        feq("[x, dx] = h'(dy (x + h y) - dx y) + (r-1) dy y^-1 x^2",
            lambda: x * dx() - dx() * x,
            lambda: hp * (dy() * (x + h * y) - dx() * y)
            + (r - 1) * (dy() * (yi * x * x))),
        feq("[y, dx] = -h dy y + (r-1) dy x",
            lambda: y * dx() - dx() * y,
            lambda: (-h) * (dy() * y) + (r - 1) * (dy() * x)),
        feq("[y, dy] = (r-1) dy y",
            lambda: y * dy() - dy() * y, lambda: (r - 1) * (dy() * y)),
        feq("[x, dy] = r h dy y + (r-1) dy x",
            lambda: x * dy() - dy() * x,
            lambda: (r * h) * (dy() * y) + (r - 1) * (dy() * x)),
        feq("theta1 theta2 + theta2 theta1 = 0",
            lambda: _theta(spec, "1").wedge(_theta(spec, "2"))
            + _theta(spec, "2").wedge(_theta(spec, "1")),
            lambda: GradedForm.zero(spec)),
        fcheck("theta1 not central for generic r",
               lambda: not is_central_one_form(spec, _theta(spec, "1"))[0]),
    ]
    return PresetBundle(spec, fixtures)


@_register("h_plane_r1")
def _build_h_plane_r1():
    # the r -> 1 endpoint: direction 2 becomes the Euler operator, realized
    # as the twisted inner derivation with lambda_2 = h^-1 y^-1 x
    pres = _hplane_pres(["h", "p", "t1"], "h_plane_r1")
    p, h, t1 = declare_params("p h t1")
    phi1 = verify_morphism(pres, {"x": "x + p*y", "y": "y"},
                           inverse_images={"x": "x - p*y", "y": "y"})
    phi2 = verify_morphism(pres, {"x": "x", "y": "y"},
                           inverse_images={"x": "x", "y": "y"})
    one = Scalar.one()
    spec = CalculusSpec(pres, DirectionSet(["1", "2"]), {"1": phi1, "2": phi2},
                        lambdas={"1": pres.const(t1.inverse()), "2": "h^-1*y^-1*x"},
                        side_conditions=("h != 0", "t1 != 0"), name="h_plane_r1",
                        two_forms=dict(
                            basis=[("1", "2")],
                            reduction={("2", "1"): [(-one, ("1", "2"))],
                                       ("1", "1"): [], ("2", "2"): []},
                            delta_table={"1": {("1", "2"): pres.const(p / h)}},
                            zeta={}))
    x, y = pres.gen("x"), pres.gen("y")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    hp = p - h
    fixtures = [
        feq("e_2 is the Euler operator on x", lambda: spec.e("2", x), lambda: x),
        feq("e_2 is the Euler operator on y^2",
            lambda: spec.e("2", y * y), lambda: 2 * (y * y)),
        feq("dx = (p/t1) y theta1 + x theta2",
            dx, lambda: ((p / t1) * y) * _theta(spec, "1") + x * _theta(spec, "2")),
        feq("(dx)^2 = h' dx dy", lambda: dx().wedge(dx()), lambda: hp * dx().wedge(dy())),
        feq("(dy)^2 = 0", lambda: dy().wedge(dy()), lambda: GradedForm.zero(spec)),
        feq("dx dy + dy dx = 0", lambda: dx().wedge(dy()) + dy().wedge(dx()),
            lambda: GradedForm.zero(spec)),
        fcheck("theta2 is central", lambda: is_central_one_form(spec, _theta(spec, "2"))[0]),
        feq("[x, dx] = h'(dy (x + h y) - dx y)",
            lambda: x * dx() - dx() * x,
            lambda: hp * (dy() * (x + h * y) - dx() * y)),
        feq("[y, dx] = -h dy y", lambda: y * dx() - dx() * y, lambda: (-h) * (dy() * y)),
        feq("[y, dy] = 0", lambda: y * dy() - dy() * y, lambda: GradedForm.zero(spec)),
        feq("[x, dy] = h dy y", lambda: x * dy() - dy() * x, lambda: h * (dy() * y)),
    ]
    return PresetBundle(spec, fixtures)


# ---------------------------------------------------------------------------
# the Z_3 root-of-unity calculus


def _z3_pres(name="z3_root_of_unity"):
    # q is a central cube root of unity adjoined to the algebra:
    # q^2 = -1 - q forces q^3 = 1
    return Presentation(
        ["q", "x", "y"], invertible={"x", "y"},
        rules=[("q^2", "-1 - q"),
               ("x*q", "q*x"), ("x^-1*q", "q*x^-1"),
               ("y*q", "q*y"), ("y^-1*q", "q*y^-1")],
        name=name)


@_register("z3_root_of_unity")
def _build_z3():
    pres = _z3_pres()
    phi1 = verify_morphism(pres, {"q": "q", "x": "q*x", "y": "q^2*y"},
                           inverse_images={"q": "q", "x": "q^2*x", "y": "q*y"})
    phi2 = verify_morphism(pres, {"q": "q", "x": "q^2*x", "y": "q*y"},
                           inverse_images={"q": "q", "x": "q*x", "y": "q^2*y"})
    lam = pres.parse("-(2 + q)/3")  # 1/(q-1) in Q[q]/(q^2+q+1)
    if not (pres.parse("q - 1") * lam).is_one():
        raise PresetError("z3 twist element is not 1/(q-1)")
    zeta_c = pres.parse("(1 + q)/3")  # 1/(q-1)^2
    spec = CalculusSpec(pres, cyclic_group({"1": 1, "2": 2}, 3),
                        {"1": phi1, "2": phi2},
                        lambdas={"1": lam, "2": lam}, name="z3_root_of_unity",
                        two_forms=dict(
                            basis=[("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")],
                            reduction={},
                            delta_table={"1": {("2", "2"): lam}, "2": {("1", "1"): lam}},
                            zeta={("1", "2"): zeta_c, ("2", "1"): zeta_c}))
    x, y = pres.gen("x"), pres.gen("y")
    xi, yi = pres.gen("x", -1), pres.gen("y", -1)
    q = pres.gen("q")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)

    # quotient by the constants: x^3 = y^3 = xy = yx = 1, so y = x^2
    qpres = once(lambda: Presentation(["q", "x"], rules=[("q^2", "-1 - q"), ("x*q", "q*x"),
                                                         ("x^3", "1")], name="z3_quotient"))

    fixtures = [
        feq("dx = x theta1 - q^2 x theta2",
            dx, lambda: x * _theta(spec, "1") - (q * q * x) * _theta(spec, "2")),
        feq("dy = -q^2 y theta1 + y theta2",
            dy, lambda: -(q * q * y) * _theta(spec, "1") + y * _theta(spec, "2")),
        feq("theta1 = (1-q)^-1 (x^-1 dx + q^2 y^-1 dy)",
            lambda: _theta(spec, "1"),
            lambda: pres.parse("(2 + q)/3") * (xi * dx() + (q * q * yi) * dy())),
        feq("theta2 = (1-q)^-1 (q^2 x^-1 dx + y^-1 dy)",
            lambda: _theta(spec, "2"),
            lambda: pres.parse("(2 + q)/3") * ((q * q * xi) * dx() + yi * dy())),
        feq("dx x = -x dx + x^2 y^-1 dy",
            lambda: dx() * x, lambda: -(x * dx()) + (x * x * yi) * dy()),
        feq("dx y = -x dy", lambda: dx() * y, lambda: -(x * dy())),
        feq("dy y = -y dy + y^2 x^-1 dx",
            lambda: dy() * y, lambda: -(y * dy()) + (y * y * xi) * dx()),
        feq("dy x = -y dx", lambda: dy() * x, lambda: -(y * dx())),
        feq("d(x^2) = x^2 y^-1 dy", lambda: differential(spec, x * x),
            lambda: (x * x * yi) * dy()),
        feq("d(y^2) = y^2 x^-1 dx", lambda: differential(spec, y * y),
            lambda: (y * y * xi) * dx()),
        feq("d(x^3) = 0", lambda: differential(spec, x ** 3), lambda: GradedForm.zero(spec)),
        feq("d(y^3) = 0", lambda: differential(spec, y ** 3), lambda: GradedForm.zero(spec)),
        feq("d(xy) = 0", lambda: differential(spec, x * y), lambda: GradedForm.zero(spec)),
        feq("d(yx) = 0", lambda: differential(spec, y * x), lambda: GradedForm.zero(spec)),
        fcheck("constants x^3, y^3, xy, yx all detected",
               lambda: len(constants(spec, [x ** 3, y ** 3, x * y, y * x])) == 4),
        fcheck("x not constant", lambda: not constants(spec, [x])),
        feq("x^2 = c1 c4^-1 y", lambda: x * x, lambda: pres.parse("x^3*(y*x)^-1*y")),
        feq("y^2 = c2 c3^-1 x", lambda: y * y, lambda: pres.parse("y^3*(x*y)^-1*x")),
        feq("quotient: all four constants become 1",
            lambda: (qpres().parse("x^3"), qpres().parse("x^6"), qpres().parse("x^2*x")),
            lambda: (qpres().one, qpres().one, qpres().one)),
        feq("quotient: x^2 = c1 c4^-1 y with y = x^2, c_i = 1",
            lambda: qpres().parse("x^3") * qpres().parse("x^2"), lambda: qpres().parse("x^2")),
        feq("quotient: y^2 = c2 c3^-1 x", lambda: qpres().parse("x^4"),
            lambda: qpres().gen("x")),
    ]
    return PresetBundle(spec, fixtures, extras=lambda: {"quotient": qpres()})


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

    inverse_of = _group_inverse(elements, mul, unit)
    autos = {}
    for label, s in directions.items():
        si = inverse_of(s)
        images = {f"e{i}": e_poly(idx[mul(elements[i], si)]) for i in range(n - 1)}
        inv_images = {f"e{i}": e_poly(idx[mul(elements[i], s)]) for i in range(n - 1)}
        autos[label] = verify_morphism(pres, images, inverse_images=inv_images)
    ds = DirectionSet.from_group({l: g for l, g in directions.items()}, mul, unit)
    return pres, CalculusSpec(pres, ds, autos, name=name), elements, idx


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


def _lattice_bundle(id_):
    elements, mul, unit, directions, ad_description = _LATTICES[id_]
    pres, spec, _, _ = make_group_lattice(id_, elements, mul, unit, directions)
    inverse_of = _group_inverse(elements, mul, unit)
    theta_images = _lattice_theta_images(spec, directions, mul, inverse_of)

    def diff_ok():
        for sl, timg in theta_images.items():
            rep = check_differentiability(spec, spec.phi(sl), timg)
            if not rep.ok:
                return False, rep.text()
        return True, ""

    fixtures = [
        fcheck("no nonzero central 1-form up to degree 2 (simple calculus)",
               lambda: not central_one_forms_probe(spec, 2)),
        feq("sum of idempotents is 1",
            lambda: sum((pres.parse(f"e{i}") for i in range(len(pres.generators))),
                        pres.zero),
            lambda: pres.one - pres.parse(
                " - ".join(["1"] + [g.name for g in pres.generators]))),
        fcheck("R*_s differentiable with theta -> theta^{s u s^-1}", diff_ok),
        fcheck("d^2 = 0 on every idempotent",
               lambda: all(d_form(spec, differential(spec, pres.gen(g.name))).is_zero()
                           for g in pres.generators)),
        fcheck(ad_description,
               lambda: all(mul(mul(s, u), inverse_of(s)) in directions.values()
                           for s in directions.values() for u in directions.values())),
    ]
    return PresetBundle(spec, fixtures)


for _id in _LATTICES:
    _register(_id)(functools.partial(_lattice_bundle, _id))


# ---------------------------------------------------------------------------
# twisted Heisenberg calculi


def _twisted_heis_pres(name):
    return Presentation(["x", "y"], rules=[("y*x", "x*y - 1")], name=name)


@_register("twisted_heisenberg_2")
def _build_twisted_h2():
    from ..algebra import identity_morphism

    pres = _twisted_heis_pres("twisted_heisenberg_2")
    ident = identity_morphism(pres)
    one = Scalar.one()
    spec = CalculusSpec(pres, DirectionSet(["1", "2"]), {"1": ident, "2": ident},
                        lambdas={"1": "-y", "2": "x"}, name="twisted_heisenberg_2",
                        two_forms=dict(
                            basis=[("1", "2")],
                            reduction={("2", "1"): [(-one, ("1", "2"))],
                                       ("1", "1"): [], ("2", "2"): []},
                            delta_table={},
                            zeta={("1", "2"): pres.one}))
    x, y = pres.gen("x"), pres.gen("y")
    fixtures = [
        feq("theta1 = dx", lambda: differential(spec, x), lambda: _theta(spec, "1")),
        feq("theta2 = dy", lambda: differential(spec, y), lambda: _theta(spec, "2")),
        feq("vartheta = x dy - y dx", lambda: vartheta(spec),
            lambda: x * differential(spec, y) - y * differential(spec, x)),
        feq("zeta = theta1 theta2", lambda: spec.two_forms.zeta_form(),
            lambda: _theta(spec, "1", "2")),
        feq("theta^s commute with the algebra (phi = id)",
            lambda: _theta(spec, "1") * x, lambda: x * _theta(spec, "1")),
        feq("Delta = 0", lambda: delta(spec, _theta(spec, "1")) + delta(spec, _theta(spec, "2")),
            lambda: GradedForm.zero(spec)),
    ]
    return PresetBundle(spec, fixtures)


@_register("twisted_heisenberg_3")
def _build_twisted_h3():
    from ..algebra import identity_morphism

    pres = _twisted_heis_pres("twisted_heisenberg_3")
    ident = identity_morphism(pres)
    one = Scalar.one()
    spec = CalculusSpec(pres, DirectionSet(["1", "2", "3"]),
                        {"1": ident, "2": ident, "3": ident},
                        lambdas={"1": "-y", "2": "x", "3": "y*x"},
                        name="twisted_heisenberg_3",
                        two_forms=dict(
                            basis=[("1", "2"), ("2", "1"), ("1", "3"), ("2", "3")],
                            reduction={("1", "1"): [], ("2", "2"): [], ("3", "3"): [],
                                       ("3", "1"): [(-one, ("1", "3"))],
                                       ("3", "2"): [(-one, ("2", "3"))]},
                            delta_table={"1": {("1", "3"): -pres.one},
                                         "2": {("2", "3"): pres.one},
                                         "3": {("1", "2"): -pres.one,
                                               ("2", "1"): -pres.one}},
                            zeta={("2", "1"): -pres.one}))
    fixtures = [
        feq("Delta(theta1) = -theta1 theta3", lambda: delta(spec, _theta(spec, "1")),
            lambda: -_theta(spec, "1", "3")),
        feq("Delta(theta2) = theta2 theta3", lambda: delta(spec, _theta(spec, "2")),
            lambda: _theta(spec, "2", "3")),
        feq("Delta(theta3) = -theta1 theta2 - theta2 theta1",
            lambda: delta(spec, _theta(spec, "3")),
            lambda: -_theta(spec, "1", "2") - _theta(spec, "2", "1")),
        feq("zeta = -theta2 theta1", lambda: spec.two_forms.zeta_form(),
            lambda: -_theta(spec, "2", "1")),
        feq("theta3 theta1 = -theta1 theta3",
            lambda: _theta(spec, "3").wedge(_theta(spec, "1")),
            lambda: -_theta(spec, "1", "3")),
        feq("(theta3)^2 = 0", lambda: _theta(spec, "3").wedge(_theta(spec, "3")),
            lambda: GradedForm.zero(spec)),
    ]
    return PresetBundle(spec, fixtures)


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

    @once
    def frame_thetas():
        frame = _gl_frame(pres)
        return frame, _gl_thetas(frame)

    autos = {}
    for s, row in GL_ALPHA.items():
        autos[s] = verify_morphism(
            pres, {g: f"({row[g]})*{g}" for g in "abcd"},
            inverse_images={g: f"({row[g]})^-1*{g}" for g in "abcd"})
    r_inv = (declare_params("p") * Scalar.param("q")).inverse()
    spec = CalculusSpec(
        pres, DirectionSet(["1", "2", "3", "4"]), autos,
        lambdas={"1": pres.one, "2": pres.gen("a"), "3": pres.gen("d"), "4": pres.one},
        theta_scalings={(s, "2"): r_inv for s in "1234"},
        side_conditions=("p*q != 1", "b, c invertible", "p != 0", "q != 0"),
        name="glpq2")
    D = pres.parse("a*d - p*b*c")

    def theta_commutation():
        _, thetas = frame_thetas()
        for s in "1234":
            for g in "abcd":
                f = pres.gen(g)
                lhs = thetas[s].mul_right(f)
                rhs = thetas[s].mul_left(pres.parse(f"({GL_ALPHA[s][g]})*{g}"))
                if lhs != rhs:
                    return False, f"theta^{s} {g}"
        return True, ""

    def vartheta_frame():
        frame, thetas = frame_thetas()
        vt = (thetas["1"] + thetas["2"].mul_left(pres.gen("a"))
              + thetas["3"].mul_left(pres.gen("d")) + thetas["4"])
        expect = frame.form({"t1": "(p*q-1)^-1", "t4": "(p*q-1)^-1*(p*q)^-1"})
        return vt == expect, f"vartheta = {vt}"

    def d_table_inner():
        frame, thetas = frame_thetas()
        vt = (thetas["1"] + thetas["2"].mul_left(pres.gen("a"))
              + thetas["3"].mul_left(pres.gen("d")) + thetas["4"])
        for g in "abcd":
            f = pres.gen(g)
            if frame.commutator(vt, f) != frame.d_poly(f):
                return False, f"d{g} != [vartheta, {g}]"
        return True, ""

    def e_s_match_frame():
        frame, thetas = frame_thetas()
        # sum_s e_s(f) theta^s expanded in the frame must equal d f
        for g in "abcd":
            f = pres.gen(g)
            acc = frame.form({})
            for s in "1234":
                acc = acc + thetas[s].mul_left(spec.e(s, f))
            if acc != frame.d_poly(f):
                return False, f"sum e_s({g}) theta^s != d{g}"
        return True, ""

    def frame_phis_ok():
        frame, thetas = frame_thetas()
        for s in "1234":
            row = {g: pres.parse(GL_ALPHA[s][g]) for g in "abcd"}
            timg = {
                "t1": frame.form({"t1": "1"}),
                "t2": frame.theta("t2").mul_left(pres.poly(
                    {(): (row["b"].as_scalar() / row["a"].as_scalar())})),
                "t3": frame.theta("t3").mul_left(pres.poly(
                    {(): (row["c"].as_scalar() / row["d"].as_scalar())})),
                "t4": frame.form({"t4": "1"}),
            }
            rep = frame.check_morphism_preserves_frame(spec.phi(s), timg)
            if not rep.ok:
                return False, f"phi_{s}: " + rep.text()
            ext = frame.apply_morphism(spec.phi(s), timg)
            for u in "1234":
                if ext(thetas[u]) != thetas[u].mul_left(pres.const(spec.theta_scale(s, u))):
                    return False, f"phi_{s}(theta^{u}) is not the expected scaling"
        return True, ""

    def spec_differentiability():
        for s in "1234":
            rep = check_differentiability(
                spec, spec.phi(s), theta_images={u: spec.theta_image(s, u) for u in "1234"},
                simple=True)
            if not rep.ok:
                return False, rep.text()
        return True, ""

    def general_families():
        frame, _ = frame_thetas()
        # the parametrized theta families, sampled at small exponents:
        # theta^4 = D^P b^N c^M tth4, theta^2 = D^Q b^K c^L (c tth2 + d tth4),
        # theta^3 = D^R b^S c^T (b tth3 - r^-1 a tth4),
        # theta^1 = D^U b^V c^W (bc tth1 - p^-1 ac tth2 + bd tth3 - p^-1 ad tth4)
        r = "(p*q)"
        for (m1, m2, m3) in [(0, 0, 0), (1, 0, 2), (2, 1, 0), (0, 2, 1)]:
            prefix = f"(a*d - p*b*c)^{m3}*b^{m1}*c^{m2}" if m3 else f"b^{m1}*c^{m2}"
            cases = [
                (frame.form({"t4": prefix}),
                 {"a": f"p^-{m1}*q^-{m2}", "b": f"{r}*(p/q)^{m2 + m3}",
                  "c": f"(q/p)^{m1 + m3}", "d": f"p^{m2 + 1}*q^{m1 + 1}"}),
                (frame.form({"t2": f"{prefix}*c", "t4": f"{prefix}*d"}),
                 {"a": f"p^-{m1}*q^-{m2}", "b": f"p^{m3 + m2 + 1}*q^-{m3 + m2}",
                  "c": f"p^-{m3 + m1}*q^{m3 + m1 + 1}", "d": f"p^{m2 + 1}*q^{m1 + 1}"}),
                (frame.form({"t3": f"{prefix}*b", "t4": f"-{r}^-1*{prefix}*a"}),
                 {"a": f"p^-{m1}*q^-{m2}", "b": f"p^{m3 + m2 + 1}*q^-{m3 + m2}",
                  "c": f"p^-{m3 + m1}*q^{m3 + m1 + 1}", "d": f"p^{m2 + 1}*q^{m1 + 1}"}),
                (frame.form({"t1": f"{prefix}*b*c", "t2": f"-p^-1*{prefix}*a*c",
                             "t3": f"{prefix}*b*d", "t4": f"-p^-1*{prefix}*a*d"}),
                 {"a": f"p^-{m1}*q^-{m2}", "b": f"(p/q)^{m3 + m2 + 1}",
                  "c": f"q^2*(q/p)^{m3 + m1}", "d": f"p^{m2 + 1}*q^{m1 + 1}"}),
            ]
            for i, (form, scalings) in enumerate(cases):
                for g in "abcd":
                    f = pres.gen(g)
                    lhs = form.mul_right(f)
                    rhs = form.mul_left(pres.parse(f"({scalings[g]})*{g}"))
                    if lhs != rhs:
                        return False, (f"family {i + 1} exponents "
                                       f"({m1},{m2},{m3}) generator {g}")
        return True, ""

    fixtures = [
        fcheck("theta^s f = phi_s(f) theta^s with the alpha matrix", theta_commutation),
        fcheck("the parametrized theta families satisfy their "
               "automorphism scalings at sampled exponents", general_families),
        fcheck("vartheta = theta1 + a theta2 + d theta3 + theta4 "
               "= (r-1)^-1 (tth1 + r^-1 tth4)", vartheta_frame),
        fcheck("d a, d b, d c, d d all reproduced by [vartheta, .]", d_table_inner),
        fcheck("twisted e_s data reproduces d in the frame", e_s_match_frame),
        fcheck("phi_s preserve the Maurer-Cartan relations and scale the thetas",
               frame_phis_ok),
        fcheck("differentiability at spec level: phi_s(theta2) = r^-1 theta2, "
               "others fixed, phi_s(vartheta) = vartheta", spec_differentiability),
        feq("quantum determinant commutations: D b = (p/q) b D",
            lambda: D * pres.gen("b"), lambda: pres.parse("(p/q)*b") * D),
        feq("D c = (q/p) c D", lambda: D * pres.gen("c"), lambda: pres.parse("(q/p)*c") * D),
        fcheck("no nonzero central 1-form up to degree 1 (simplicity probe)",
               lambda: not central_one_forms_probe(spec, 1)),
    ]

    def extras():
        frame, thetas = frame_thetas()
        return {"frame": frame, "thetas": thetas, "alpha": GL_ALPHA, "determinant": D}

    return PresetBundle(spec, fixtures, extras=extras)


# ---------------------------------------------------------------------------
# tensor-product realizations


@_register("tensor_qplane")
def _build_tensor_qplane():
    from ..algebra import tensor_product

    comm = Presentation(["u", "v"], params=["p", "q"],
                        rules=[("v*u", "u*v")], name="comm_uv")
    qpl = Presentation(["U", "V"], params=["q"],
                       rules=[("V*U", "q^-1 * U*V")], name="qplane_UV")
    pres = tensor_product(comm, qpl, name="tensor_qplane")
    phi1 = verify_morphism(pres, {"u": "(p*q)^-1*u", "v": "(p*q)^-1*v", "U": "U", "V": "V"},
                           inverse_images={"u": "p*q*u", "v": "p*q*v", "U": "U", "V": "V"})
    phi2 = verify_morphism(pres, {"u": "u", "v": "(p*q)^-1*v", "U": "U", "V": "V"},
                           inverse_images={"u": "u", "v": "p*q*v", "U": "U", "V": "V"})
    spec = CalculusSpec(pres, zn_group({"1": (1, 0), "2": (0, 1)}),
                        {"1": phi1, "2": phi2}, name="tensor_qplane")
    x, y = pres.parse("u*U"), pres.parse("v*V")
    u, v = pres.gen("u"), pres.gen("v")
    q = pres.parse("q").as_scalar()
    pq = pres.parse("p*q").as_scalar()
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    du = lambda: differential(spec, u)
    dv = lambda: differential(spec, v)
    fixtures = [
        feq("x = uU, y = vV generate a quantum plane: xy = q yx",
            lambda: x * y, lambda: q * (y * x)),
        feq("u du = pq du u", lambda: u * du(), lambda: pq * (du() * u)),
        feq("v du = pq du v", lambda: v * du(), lambda: pq * (du() * v)),
        feq("u dv = dv u + (pq-1) du v", lambda: u * dv(),
            lambda: dv() * u + (pq - 1) * (du() * v)),
        feq("v dv = pq dv v", lambda: v * dv(), lambda: pq * (dv() * v)),
        feq("x dx = pq dx x", lambda: x * dx(), lambda: pq * (dx() * x)),
        feq("y dx = p dx y", lambda: y * dx(), lambda: (pq / q) * (dx() * y)),
        feq("y dy = pq dy y", lambda: y * dy(), lambda: pq * (dy() * y)),
        feq("x dy = q dy x + (pq-1) dx y", lambda: x * dy(),
            lambda: q * (dy() * x) + (pq - 1) * (dx() * y)),
    ]
    return PresetBundle(spec, fixtures)


@_register("tensor_hplane")
def _build_tensor_hplane():
    from ..algebra import tensor_product

    comm = Presentation(["v", "u"], params=["h", "hp", "r", "t1"], invertible={"v"},
                        rules=[("u*v", "v*u"), ("u*v^-1", "v^-1*u")], name="comm_vu")
    hpl = Presentation(["V", "U"], params=["h"], invertible={"V"},
                       rules=[("U*V", "V*U + h*V^2"),
                              ("U*V^-1", "V^-1*U - h")], name="hplane_VU")
    pres = tensor_product(comm, hpl, name="tensor_hplane")
    h, hp, r, t1 = declare_params("h hp r t1")
    pt = "(h + hp)"  # shift parameter; hp plays the role of h'
    phi1 = verify_morphism(
        pres, {"u": f"u + {pt}*v", "v": "v", "U": "U", "V": "V"},
        inverse_images={"u": f"u - {pt}*v", "v": "v", "U": "U", "V": "V"})
    phi2 = verify_morphism(
        pres, {"u": "r^-1*u", "v": "r^-1*v", "U": "U", "V": "V"},
        inverse_images={"u": "r*u", "v": "r*v", "U": "U", "V": "V"})
    spec = CalculusSpec(pres, zn_group({"1": (1, 0), "2": (0, 1)}),
                        {"1": phi1, "2": phi2},
                        weights={"1": t1, "2": 1 - r},
                        side_conditions=("r != 0", "r != 1 before the limit",
                                         "h + hp != 0"),
                        name="tensor_hplane")
    x, y = pres.parse("v*U + u*V"), pres.parse("v*V")
    u, v = pres.gen("u"), pres.gen("v")
    yi = pres.parse("(v*V)^-1")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    at_r1 = {"r": Scalar.one()}

    def bracket(a, da):
        return a * da - da * a

    fixtures = [
        feq("x = vU + uV, y = vV satisfy [x, y] = h y^2",
            lambda: x * y - y * x, lambda: h * (y * y)),
        feq("[y, dy] = (r-1) dy y (generic r)",
            lambda: bracket(y, dy()), lambda: (r - 1) * (dy() * y)),
        feq("[y, dx] = -h dy y + (r-1) dy x (generic r)",
            lambda: bracket(y, dx()), lambda: (-h) * (dy() * y) + (r - 1) * (dy() * x)),
        feq("[x, dy] = r h dy y + (r-1) dy x (generic r)",
            lambda: bracket(x, dy()), lambda: (r * h) * (dy() * y) + (r - 1) * (dy() * x)),
        feq("[x, dx] = h'(dy(x+hy) - dx y) + (r-1) dy y^-1 x^2 (generic r)",
            lambda: bracket(x, dx()),
            lambda: hp * (dy() * (x + h * y) - dx() * y)
            + (r - 1) * (dy() * (yi * x * x))),
        feq("limit r=1: [x, dx] = h'(dy(x+hy) - dx y)",
            lambda: bracket(x, dx()).substitute_params(at_r1),
            lambda: (hp * (dy() * (x + h * y) - dx() * y)).substitute_params(at_r1)),
        feq("limit r=1: [y, dx] = -h dy y",
            lambda: bracket(y, dx()).substitute_params(at_r1),
            lambda: ((-h) * (dy() * y)).substitute_params(at_r1)),
        feq("limit r=1: [y, dy] = 0",
            lambda: bracket(y, dy()).substitute_params(at_r1),
            lambda: GradedForm.zero(spec)),
        feq("limit r=1: (dx)^2 = h' dx dy",
            lambda: dx().wedge(dx()).substitute_params(at_r1),
            lambda: (hp * dx().wedge(dy())).substitute_params(at_r1)),
        feq("limit r=1: factor relations [v,dv] = [v,du] = [u,dv] = 0",
            lambda: (bracket(v, differential(spec, v))
                     + bracket(v, differential(spec, u))
                     + bracket(u, differential(spec, v))).substitute_params(at_r1),
            lambda: GradedForm.zero(spec)),
        feq("limit r=1: [u, du] = (h+h')(dv u - du v)",
            lambda: bracket(u, differential(spec, u)).substitute_params(at_r1),
            lambda: ((h + hp) * (differential(spec, v) * u - differential(spec, u) * v)
                     ).substitute_params(at_r1)),
    ]
    return PresetBundle(spec, fixtures)


PRESET_IDS = tuple(sorted(_BUILDERS))
