"""The golden fixtures of the preset catalog: the paper's worked identities.

`preset run` replays them; a preset load never imports this module.  Each
entry of FIXTURES maps a preset id to a function of the loaded bundle that
returns its fixtures; objects built only for fixtures (the z3 quotient
algebra, the GL_pq(2) frame and thetas) come from `bundle.extras`.
"""

from __future__ import annotations

from ..calculus import (GradedForm, central_one_forms_probe, check_differentiability,
                        constants, d_form, delta, differential, is_central_one_form,
                        move_right, solve_theta_in_differentials, theta_solution_form,
                        vartheta)
from ..scalar import Scalar, params as declare_params
from .base import fcheck, feq
from .catalog import GL_ALPHA, _LATTICES, _group_inverse, _lattice_theta_images

FIXTURES = {}


def _fixtures_of(*ids):
    def deco(fn):
        for id_ in ids:
            FIXTURES[id_] = fn
        return fn
    return deco


def _theta(spec, *labels):
    return GradedForm.theta(spec, *labels)


# ---------------------------------------------------------------------------
# polynomial shift calculi on C[x]


@_fixtures_of("poly_shift_S12")
def _poly_shift_s12(bundle):
    spec = bundle.spec
    x = spec.pres.gen("x")
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

    return [
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


@_fixtures_of("poly_shift_sym")
def _poly_shift_sym(bundle):
    spec = bundle.spec
    x = spec.pres.gen("x")
    return [
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


# ---------------------------------------------------------------------------
# quantum plane family


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


@_fixtures_of("quantum_plane_a")
def _qplane_a(bundle):
    spec, pres = bundle.spec, bundle.presentation
    x, y = pres.gen("x"), pres.gen("y")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    pq = pres.parse("p*q").as_scalar()
    q = pres.parse("q").as_scalar()
    return [
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


@_fixtures_of("quantum_plane_b")
def _qplane_b(bundle):
    spec, pres = bundle.spec, bundle.presentation
    x, y = pres.gen("x"), pres.gen("y")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    al = pres.parse("alpha").as_scalar()
    de = pres.parse("delta").as_scalar()
    q = pres.parse("q").as_scalar()
    return [
        feq("x dx = alpha dx x", lambda: x * dx(), lambda: al * (dx() * x)),
        feq("y dx = q^-1 dx y + (alpha-1) dy x",
            lambda: y * dx(), lambda: (Scalar.one() / q) * (dx() * y) + (al - 1) * (dy() * x)),
        feq("y dy = delta dy y", lambda: y * dy(), lambda: de * (dy() * y)),
        feq("x dy = q alpha dy x", lambda: x * dy(), lambda: (q * al) * (dy() * x)),
        *_qplane_two_form_fixtures(spec),
    ]


@_fixtures_of("quantum_plane_c")
def _qplane_c(bundle):
    spec, pres = bundle.spec, bundle.presentation
    x, y = pres.gen("x"), pres.gen("y")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    al = pres.parse("alpha").as_scalar()
    de = pres.parse("delta").as_scalar()
    q = pres.parse("q").as_scalar()
    return [
        feq("x dx = alpha dx x", lambda: x * dx(), lambda: al * (dx() * x)),
        feq("y dx = q^-1 dx y", lambda: y * dx(), lambda: (Scalar.one() / q) * (dx() * y)),
        feq("y dy = delta dy y", lambda: y * dy(), lambda: de * (dy() * y)),
        feq("x dy = q dy x", lambda: x * dy(), lambda: q * (dy() * x)),
        *_qplane_two_form_fixtures(spec),
    ]


@_fixtures_of("quantum_torus")
def _quantum_torus(bundle):
    spec, pres = bundle.spec, bundle.presentation
    al, be, ga, de, t1, t2 = declare_params("alpha beta gamma delta t1 t2")
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

    return [
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


# ---------------------------------------------------------------------------
# Heisenberg and the h-deformed plane


@_fixtures_of("heisenberg")
def _heisenberg(bundle):
    spec, pres = bundle.spec, bundle.presentation
    a, b = declare_params("a b")
    x, y = pres.gen("x"), pres.gen("y")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    return [
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


@_fixtures_of("h_plane")
def _h_plane(bundle):
    spec, pres = bundle.spec, bundle.presentation
    p, r, h, t1, t2 = declare_params("p r h t1 t2")
    x, y = pres.gen("x"), pres.gen("y")
    yi = pres.gen("y", -1)
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    hp = p - h  # h' = p - h
    return [
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


@_fixtures_of("h_plane_r1")
def _h_plane_r1(bundle):
    spec, pres = bundle.spec, bundle.presentation
    p, h, t1 = declare_params("p h t1")
    x, y = pres.gen("x"), pres.gen("y")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    hp = p - h
    return [
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


# ---------------------------------------------------------------------------
# the Z_3 root-of-unity calculus


@_fixtures_of("z3_root_of_unity")
def _z3(bundle):
    spec, pres = bundle.spec, bundle.presentation
    x, y = pres.gen("x"), pres.gen("y")
    xi, yi = pres.gen("x", -1), pres.gen("y", -1)
    q = pres.gen("q")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    qpres = lambda: bundle.extras["quotient"]  # x^3 = y^3 = xy = yx = 1, so y = x^2
    return [
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


# ---------------------------------------------------------------------------
# group lattices (function algebras on finite groups)


@_fixtures_of(*_LATTICES)
def _lattice(bundle):
    spec, pres = bundle.spec, bundle.presentation
    elements, mul, unit, directions, ad_description = _LATTICES[bundle.id]
    inverse_of = _group_inverse(elements, mul, unit)
    theta_images = _lattice_theta_images(spec, directions, mul, inverse_of)

    def diff_ok():
        for sl, timg in theta_images.items():
            rep = check_differentiability(spec, spec.phi(sl), timg)
            if not rep.ok:
                return False, rep.text()
        return True, ""

    return [
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


# ---------------------------------------------------------------------------
# twisted Heisenberg calculi


@_fixtures_of("twisted_heisenberg_2")
def _twisted_h2(bundle):
    spec = bundle.spec
    x, y = spec.pres.gen("x"), spec.pres.gen("y")
    return [
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


@_fixtures_of("twisted_heisenberg_3")
def _twisted_h3(bundle):
    spec = bundle.spec
    return [
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


# ---------------------------------------------------------------------------
# the bicovariant calculus on GL_pq(2)


@_fixtures_of("glpq2")
def _glpq2(bundle):
    # the first six fixtures read the frame and thetas of bundle.extras, so a
    # broken frame table fails exactly those
    spec, pres = bundle.spec, bundle.presentation
    D = pres.parse("a*d - p*b*c")

    def frame_thetas():
        extras = bundle.extras
        return extras["frame"], extras["thetas"]

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

    return [
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


# ---------------------------------------------------------------------------
# tensor-product realizations


@_fixtures_of("tensor_qplane")
def _tensor_qplane(bundle):
    spec, pres = bundle.spec, bundle.presentation
    x, y = pres.parse("u*U"), pres.parse("v*V")
    u, v = pres.gen("u"), pres.gen("v")
    q = pres.parse("q").as_scalar()
    pq = pres.parse("p*q").as_scalar()
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    du = lambda: differential(spec, u)
    dv = lambda: differential(spec, v)
    return [
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


@_fixtures_of("tensor_hplane")
def _tensor_hplane(bundle):
    spec, pres = bundle.spec, bundle.presentation
    h, hp, r = declare_params("h hp r")
    x, y = pres.parse("v*U + u*V"), pres.parse("v*V")
    u, v = pres.gen("u"), pres.gen("v")
    yi = pres.parse("(v*V)^-1")
    dx = lambda: differential(spec, x)
    dy = lambda: differential(spec, y)
    at_r1 = {"r": Scalar.one()}

    def bracket(a, da):
        return a * da - da * a

    return [
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
