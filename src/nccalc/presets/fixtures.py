"""The golden fixtures of the preset catalog: the paper's worked identities.

`preset run` replays them; a preset load never imports this module.  Each
entry of FIXTURES maps a preset id to a function of the loaded bundle that
returns its fixtures.  An identity between two forms or algebra elements is
one row `(name, lhs, rhs)`, or `(name, lhs, rhs, bindings)` to compare both
sides at fixed parameter values.  Both sides are read by `_IdentityCtx` when
the fixture runs, so a row that does not parse fails its fixture.  What is
not such an identity stays code; objects built only for fixtures (the z3
quotient algebra, the GL_pq(2) frame and thetas) come from `bundle.extras`.
"""

from __future__ import annotations

from ..calculus import (GradedForm, _FormCtx, constants, d_form, delta, differential,
                        move_right, vartheta)
from ..linalg import solve_theta_in_differentials, theta_solution_form
from ..parsing import parse_with_context
from ..scalar import Scalar
from ..suites import central_one_forms_probe, check_differentiability, is_central_one_form
from .base import Fixture
from .glpq2 import GL_ALPHA
from .lattices import _LATTICES, _group_inverse, _lattice_theta_images

FIXTURES = {}


def feq(description, lhs_fn, rhs_fn):
    """Fixture comparing two lazily computed values for exact equality."""

    def run():
        lhs, rhs = lhs_fn(), rhs_fn()
        ok = lhs == rhs
        return ok, "" if ok else f"{lhs}  !=  {rhs}"

    return Fixture(description, run)


def fcheck(description, fn):
    """Fixture around a predicate returning bool or (bool, detail)."""

    def run():
        out = fn()
        if isinstance(out, tuple):
            return bool(out[0]), str(out[1])
        return bool(out), ""

    return Fixture(description, run)


# the atoms vartheta and zeta of the identity rows
_ATOMS = {"vartheta": vartheta,
          "zeta": lambda spec: spec.two_forms.zeta_form()}


class _IdentityCtx(_FormCtx):
    """The form language of `d --expr` plus Delta(form), d of a form of
    positive degree, and the atoms vartheta and zeta wherever no generator
    or parameter of the presentation takes their name."""

    def name(self, name):
        pres = self.spec.pres
        if (name in _ATOMS and name not in pres.params
                and all(g.name != name for g in pres.generators)):
            return _ATOMS[name](self.spec)
        return super().name(name)

    def call(self, name, arg):
        if name == "Delta":
            return delta(self.spec, arg)
        if name == "d" and set(arg.degrees()) - {0}:
            return d_form(self.spec, arg)
        return super().call(name, arg)


def _identity(spec, name, lhs, rhs, bindings=None):
    """The fixture lhs = rhs, both sides read when it runs, at `bindings` if given."""

    def side(text):
        form = parse_with_context(text, _IdentityCtx(spec))
        return form if bindings is None else form.substitute_params(bindings)

    return feq(name, lambda: side(lhs), lambda: side(rhs))


def _fixtures_of(*ids):
    """Register fn(bundle) for the ids; each row it returns becomes an identity."""

    def deco(fn):
        def fixtures(bundle):
            return [fx if isinstance(fx, Fixture) else _identity(bundle.spec, *fx)
                    for fx in fn(bundle)]

        for id_ in ids:
            FIXTURES[id_] = fixtures
        return fn
    return deco


def _theta_solve(spec, description, coords, *wants):
    """theta^s solved in the differentials of coords is theta[s] and wants[s]."""

    def run():
        fs = [spec.pres.parse(c) for c in coords]
        sol = solve_theta_in_differentials(spec, fs)
        if not sol.ok:
            return False, "e_s(coords) matrix not invertible"
        for s, want in zip(spec.directions.labels, wants):
            want = parse_with_context(want, _IdentityCtx(spec))
            if not theta_solution_form(spec, sol, fs, s) == GradedForm.theta(spec, s) == want:
                return False, f"theta{s} = {want} does not hold"
        return True, ""

    return fcheck(description, run)


def _phis_differentiable(spec, description):
    return fcheck(description, lambda: all(check_differentiability(spec, spec.phi(s)).ok
                                           for s in spec.directions.labels))


def _e(spec, description, s, f, image):
    """e_s(f) = image, with f and image algebra text."""
    return feq(description, lambda: spec.e(s, spec.pres.parse(f)),
               lambda: spec.pres.parse(image))


# ---------------------------------------------------------------------------
# polynomial shift calculi on C[x]


@_fixtures_of("poly_shift_S12")
def _poly_shift_s12(bundle):
    return [
        _theta_solve(bundle.spec, "theta1 = 2(1+x)dx - dx^2 and theta2 = -(1/2+x)dx + dx^2/2",
                     ["x", "x^2"], "2*(1 + x)*d(x) - d(x^2)", "(-1/2 - x)*d(x) + 1/2*d(x^2)"),
        ("Delta(theta1) = 0", "Delta(theta[1])", "0"),
        ("Delta(theta2) = theta1^2", "Delta(theta[2])", "theta[1]*theta[1]"),
        ("theta2 theta1 = -theta1 theta2", "theta[2]*theta[1]", "-theta[1]*theta[2]"),
        ("theta2^2 = 0", "theta[2]^2", "0"),
        ("zeta = 0", "zeta", "0"),
        ("d(dx) = 0", "d(d(x))", "0"),
    ]


@_fixtures_of("poly_shift_sym")
def _poly_shift_sym(bundle):
    return [
        ("vartheta = dx^2 - 2x dx", "vartheta", "d(x^2) - 2*x*d(x)"),
        ("zeta = theta[-1]theta[1] + theta[1]theta[-1]", "zeta",
         "theta[-1]*theta[1] + theta[1]*theta[-1]"),
        ("theta[-1]^2 = 0", "theta[-1]^2", "0"),
        ("theta[1]^2 = 0", "theta[1]^2", "0"),
        ("Delta = 0 on theta[1]", "Delta(theta[1])", "0"),
        ("[zeta, x] = 0", "zeta*x - x*zeta", "0"),
    ]


# ---------------------------------------------------------------------------
# quantum plane family


_QPLANE_TWO_FORMS = (
    ("theta1^2 = 0", "theta[1]^2", "0"),
    ("theta2^2 = 0", "theta[2]^2", "0"),
    ("theta1 theta2 + theta2 theta1 = 0", "theta[1]*theta[2] + theta[2]*theta[1]", "0"),
    ("d(vartheta) = 0", "d(vartheta)", "0"),
    ("vartheta^2 = 0", "vartheta^2", "0"),
)


@_fixtures_of("quantum_plane_a")
def _qplane_a(bundle):
    spec = bundle.spec
    return [
        ("x dx = pq dx x", "x*d(x)", "p*q*d(x)*x"),
        ("y dx = p dx y", "y*d(x)", "p*d(x)*y"),
        ("y dy = pq dy y", "y*d(y)", "p*q*d(y)*y"),
        ("x dy = q dy x + (pq-1) dx y", "x*d(y)", "q*d(y)*x + (p*q - 1)*d(x)*y"),
        *_QPLANE_TWO_FORMS,
        _phis_differentiable(spec, "phi_s differentiable with phi_s(theta) = theta"),
        fcheck("theta1 is not central (generic parameters)",
               lambda: not is_central_one_form(spec, GradedForm.theta(spec, "1"))[0]),
    ]


@_fixtures_of("quantum_plane_b")
def _qplane_b(bundle):
    return [
        ("x dx = alpha dx x", "x*d(x)", "alpha*d(x)*x"),
        ("y dx = q^-1 dx y + (alpha-1) dy x", "y*d(x)", "q^-1*d(x)*y + (alpha - 1)*d(y)*x"),
        ("y dy = delta dy y", "y*d(y)", "delta*d(y)*y"),
        ("x dy = q alpha dy x", "x*d(y)", "q*alpha*d(y)*x"),
        *_QPLANE_TWO_FORMS,
    ]


@_fixtures_of("quantum_plane_c")
def _qplane_c(bundle):
    return [
        ("x dx = alpha dx x", "x*d(x)", "alpha*d(x)*x"),
        ("y dx = q^-1 dx y", "y*d(x)", "q^-1*d(x)*y"),
        ("y dy = delta dy y", "y*d(y)", "delta*d(y)*y"),
        ("x dy = q dy x", "x*d(y)", "q*d(y)*x"),
        *_QPLANE_TWO_FORMS,
    ]


@_fixtures_of("quantum_torus")
def _quantum_torus(bundle):
    A, B = "((1 - alpha)/t1)", "((1 - beta)/t1)"
    C, D = "((1 - gamma)/t2)", "((1 - delta)/t2)"
    inv = f"({A}*{D} - {B}*{C})^-1"
    return [
        _theta_solve(bundle.spec, "theta1 = (AD-BC)^-1 (D dx x^-1 - C dy y^-1), theta2 likewise",
                     ["x", "y"], f"{inv}*({D}*d(x)*x^-1 - {C}*d(y)*y^-1)",
                     f"{inv}*({A}*d(y)*y^-1 - {B}*d(x)*x^-1)"),
        ("x dx = (AD-BC)^-1 [(aAD-gBC) dx + (g-a) AC dy y^-1 x] x", "x*d(x)",
         f"{inv}*((alpha*{A}*{D} - gamma*{B}*{C})*d(x) + (gamma - alpha)*{A}*{C}*d(y)*y^-1*x)*x"),
        ("y dx = (AD-BC)^-1 [q^-1 (bAD - dBC) dx y + (d-b) AC dy x]", "y*d(x)",
         f"{inv}*((beta*{A}*{D} - delta*{B}*{C})/q*d(x)*y + (delta - beta)*{A}*{C}*d(y)*x)"),
    ]


# ---------------------------------------------------------------------------
# Heisenberg and the h-deformed plane


@_fixtures_of("heisenberg")
def _heisenberg(bundle):
    return [
        ("dx = theta1", "d(x)", "theta[1]"),
        ("dy = theta2", "d(y)", "theta[2]"),
        ("[dx, x] = a dx", "d(x)*x - x*d(x)", "a*d(x)"),
        ("[dx, y] = 0", "d(x)*y - y*d(x)", "0"),
        ("[dy, x] = 0", "d(y)*x - x*d(y)", "0"),
        ("[dy, y] = b dy", "d(y)*y - y*d(y)", "b*d(y)"),
        _phis_differentiable(bundle.spec, "phi_s differentiable with fixed thetas"),
        _e(bundle.spec, "e_1(x) = 1", "1", "x", "1"),
    ]


@_fixtures_of("h_plane")
def _h_plane(bundle):
    spec, pres = bundle.spec, bundle.presentation
    return [
        ("dx = (p/t1) theta1 y + ((1-r)/t2) theta2 x", "d(x)",
         "p/t1*theta[1]*y + (1 - r)/t2*theta[2]*x"),
        ("dy = ((1-r)/t2) theta2 y", "d(y)", "(1 - r)/t2*theta[2]*y"),
        feq("f theta1 = theta1 f(x-py, y) on f = x",
            lambda: move_right(spec, ("1",), pres.gen("x")), lambda: pres.parse("x - p*y")),
        feq("f theta2 = theta2 f(rx, ry) on f = x",
            lambda: move_right(spec, ("2",), pres.gen("x")), lambda: pres.parse("r*x")),
        ("[x, dx] = h'(dy (x + h y) - dx y) + (r-1) dy y^-1 x^2", "x*d(x) - d(x)*x",
         "(p - h)*(d(y)*(x + h*y) - d(x)*y) + (r - 1)*d(y)*y^-1*x^2"),
        ("[y, dx] = -h dy y + (r-1) dy x", "y*d(x) - d(x)*y", "-h*d(y)*y + (r - 1)*d(y)*x"),
        ("[y, dy] = (r-1) dy y", "y*d(y) - d(y)*y", "(r - 1)*d(y)*y"),
        ("[x, dy] = r h dy y + (r-1) dy x", "x*d(y) - d(y)*x", "r*h*d(y)*y + (r - 1)*d(y)*x"),
        ("theta1 theta2 + theta2 theta1 = 0", "theta[1]*theta[2] + theta[2]*theta[1]", "0"),
        fcheck("theta1 not central for generic r",
               lambda: not is_central_one_form(spec, GradedForm.theta(spec, "1"))[0]),
    ]


@_fixtures_of("h_plane_r1")
def _h_plane_r1(bundle):
    spec = bundle.spec
    return [
        _e(spec, "e_2 is the Euler operator on x", "2", "x", "x"),
        _e(spec, "e_2 is the Euler operator on y^2", "2", "y^2", "2*y^2"),
        ("dx = (p/t1) y theta1 + x theta2", "d(x)", "p/t1*y*theta[1] + x*theta[2]"),
        ("(dx)^2 = h' dx dy", "d(x)^2", "(p - h)*d(x)*d(y)"),
        ("(dy)^2 = 0", "d(y)^2", "0"),
        ("dx dy + dy dx = 0", "d(x)*d(y) + d(y)*d(x)", "0"),
        fcheck("theta2 is central",
               lambda: is_central_one_form(spec, GradedForm.theta(spec, "2"))[0]),
        ("[x, dx] = h'(dy (x + h y) - dx y)", "x*d(x) - d(x)*x",
         "(p - h)*(d(y)*(x + h*y) - d(x)*y)"),
        ("[y, dx] = -h dy y", "y*d(x) - d(x)*y", "-h*d(y)*y"),
        ("[y, dy] = 0", "y*d(y) - d(y)*y", "0"),
        ("[x, dy] = h dy y", "x*d(y) - d(y)*x", "h*d(y)*y"),
    ]


# ---------------------------------------------------------------------------
# the Z_3 root-of-unity calculus


@_fixtures_of("z3_root_of_unity")
def _z3(bundle):
    spec, pres = bundle.spec, bundle.presentation
    qpres = lambda: bundle.extras["quotient"]  # x^3 = y^3 = xy = yx = 1, so y = x^2
    return [
        ("dx = x theta1 - q^2 x theta2", "d(x)", "x*theta[1] - q^2*x*theta[2]"),
        ("dy = -q^2 y theta1 + y theta2", "d(y)", "-q^2*y*theta[1] + y*theta[2]"),
        ("theta1 = (1-q)^-1 (x^-1 dx + q^2 y^-1 dy)", "theta[1]",
         "(2 + q)/3*(x^-1*d(x) + q^2*y^-1*d(y))"),
        ("theta2 = (1-q)^-1 (q^2 x^-1 dx + y^-1 dy)", "theta[2]",
         "(2 + q)/3*(q^2*x^-1*d(x) + y^-1*d(y))"),
        ("dx x = -x dx + x^2 y^-1 dy", "d(x)*x", "-x*d(x) + x^2*y^-1*d(y)"),
        ("dx y = -x dy", "d(x)*y", "-x*d(y)"),
        ("dy y = -y dy + y^2 x^-1 dx", "d(y)*y", "-y*d(y) + y^2*x^-1*d(x)"),
        ("dy x = -y dx", "d(y)*x", "-y*d(x)"),
        ("d(x^2) = x^2 y^-1 dy", "d(x^2)", "x^2*y^-1*d(y)"),
        ("d(y^2) = y^2 x^-1 dx", "d(y^2)", "y^2*x^-1*d(x)"),
        ("d(x^3) = 0", "d(x^3)", "0"),
        ("d(y^3) = 0", "d(y^3)", "0"),
        ("d(xy) = 0", "d(x*y)", "0"),
        ("d(yx) = 0", "d(y*x)", "0"),
        fcheck("constants x^3, y^3, xy, yx all detected",
               lambda: len(constants(spec, [pres.parse(f) for f in ("x^3", "y^3", "x*y", "y*x")]))
               == 4),
        fcheck("x not constant", lambda: not constants(spec, [pres.gen("x")])),
        ("x^2 = c1 c4^-1 y", "x^2", "x^3*(y*x)^-1*y"),
        ("y^2 = c2 c3^-1 x", "y^2", "y^3*(x*y)^-1*x"),
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
    names = [g.name for g in pres.generators]

    def diff_ok():
        for sl, timg in theta_images.items():
            rep = check_differentiability(spec, spec.phi(sl), timg)
            if not rep.ok:
                return False, rep.text()
        return True, ""

    return [
        fcheck("no nonzero central 1-form up to degree 2 (simple calculus)",
               lambda: not central_one_forms_probe(spec, 2)),
        ("sum of idempotents is 1", " + ".join(names), f"1 - ({' - '.join(['1', *names])})"),
        fcheck("R*_s differentiable with theta -> theta^{s u s^-1}", diff_ok),
        fcheck("d^2 = 0 on every idempotent",
               lambda: all(d_form(spec, differential(spec, pres.gen(g))).is_zero()
                           for g in names)),
        fcheck(ad_description,
               lambda: all(mul(mul(s, u), inverse_of(s)) in directions.values()
                           for s in directions.values() for u in directions.values())),
    ]


# ---------------------------------------------------------------------------
# twisted Heisenberg calculi


@_fixtures_of("twisted_heisenberg_2")
def _twisted_h2(bundle):
    return [
        ("theta1 = dx", "d(x)", "theta[1]"),
        ("theta2 = dy", "d(y)", "theta[2]"),
        ("vartheta = x dy - y dx", "vartheta", "x*d(y) - y*d(x)"),
        ("zeta = theta1 theta2", "zeta", "theta[1]*theta[2]"),
        ("theta^s commute with the algebra (phi = id)", "theta[1]*x", "x*theta[1]"),
        ("Delta = 0", "Delta(theta[1]) + Delta(theta[2])", "0"),
    ]


@_fixtures_of("twisted_heisenberg_3")
def _twisted_h3(bundle):
    return [
        ("Delta(theta1) = -theta1 theta3", "Delta(theta[1])", "-theta[1]*theta[3]"),
        ("Delta(theta2) = theta2 theta3", "Delta(theta[2])", "theta[2]*theta[3]"),
        ("Delta(theta3) = -theta1 theta2 - theta2 theta1", "Delta(theta[3])",
         "-theta[1]*theta[2] - theta[2]*theta[1]"),
        ("zeta = -theta2 theta1", "zeta", "-theta[2]*theta[1]"),
        ("theta3 theta1 = -theta1 theta3", "theta[3]*theta[1]", "-theta[1]*theta[3]"),
        ("(theta3)^2 = 0", "theta[3]^2", "0"),
    ]


# ---------------------------------------------------------------------------
# the bicovariant calculus on GL_pq(2)


@_fixtures_of("glpq2")
def _glpq2(bundle):
    # the first six fixtures read the frame and thetas of bundle.extras, so a
    # broken frame table fails exactly those
    spec, pres = bundle.spec, bundle.presentation

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
        ("quantum determinant commutations: D b = (p/q) b D", "(a*d - p*b*c)*b",
         "(p/q)*b*(a*d - p*b*c)"),
        ("D c = (q/p) c D", "(a*d - p*b*c)*c", "(q/p)*c*(a*d - p*b*c)"),
        fcheck("no nonzero central 1-form up to degree 1 (simplicity probe)",
               lambda: not central_one_forms_probe(spec, 1)),
    ]


# ---------------------------------------------------------------------------
# tensor-product realizations


@_fixtures_of("tensor_qplane")
def _tensor_qplane(bundle):
    # x = uU, y = vV
    return [
        ("x = uU, y = vV generate a quantum plane: xy = q yx", "u*U*v*V", "q*v*V*u*U"),
        ("u du = pq du u", "u*d(u)", "p*q*d(u)*u"),
        ("v du = pq du v", "v*d(u)", "p*q*d(u)*v"),
        ("u dv = dv u + (pq-1) du v", "u*d(v)", "d(v)*u + (p*q - 1)*d(u)*v"),
        ("v dv = pq dv v", "v*d(v)", "p*q*d(v)*v"),
        ("x dx = pq dx x", "u*U*d(u*U)", "p*q*d(u*U)*u*U"),
        ("y dx = p dx y", "v*V*d(u*U)", "p*d(u*U)*v*V"),
        ("y dy = pq dy y", "v*V*d(v*V)", "p*q*d(v*V)*v*V"),
        ("x dy = q dy x + (pq-1) dx y", "u*U*d(v*V)", "q*d(v*V)*u*U + (p*q - 1)*d(u*U)*v*V"),
    ]


@_fixtures_of("tensor_hplane")
def _tensor_hplane(bundle):
    x, y = "(v*U + u*V)", "(v*V)"
    at_r1 = {"r": Scalar.one()}
    return [
        ("x = vU + uV, y = vV satisfy [x, y] = h y^2", f"{x}*{y} - {y}*{x}", f"h*{y}^2"),
        ("[y, dy] = (r-1) dy y (generic r)", f"{y}*d{y} - d{y}*{y}", f"(r - 1)*d{y}*{y}"),
        ("[y, dx] = -h dy y + (r-1) dy x (generic r)", f"{y}*d{x} - d{x}*{y}",
         f"-h*d{y}*{y} + (r - 1)*d{y}*{x}"),
        ("[x, dy] = r h dy y + (r-1) dy x (generic r)", f"{x}*d{y} - d{y}*{x}",
         f"r*h*d{y}*{y} + (r - 1)*d{y}*{x}"),
        ("[x, dx] = h'(dy(x+hy) - dx y) + (r-1) dy y^-1 x^2 (generic r)",
         f"{x}*d{x} - d{x}*{x}",
         f"hp*(d{y}*({x} + h*{y}) - d{x}*{y}) + (r - 1)*d{y}*{y}^-1*{x}^2"),
        ("limit r=1: [x, dx] = h'(dy(x+hy) - dx y)", f"{x}*d{x} - d{x}*{x}",
         f"hp*(d{y}*({x} + h*{y}) - d{x}*{y})", at_r1),
        ("limit r=1: [y, dx] = -h dy y", f"{y}*d{x} - d{x}*{y}", f"-h*d{y}*{y}", at_r1),
        ("limit r=1: [y, dy] = 0", f"{y}*d{y} - d{y}*{y}", "0", at_r1),
        ("limit r=1: (dx)^2 = h' dx dy", f"d{x}^2", f"hp*d{x}*d{y}", at_r1),
        ("limit r=1: factor relations [v,dv] = [v,du] = [u,dv] = 0",
         "v*d(v) - d(v)*v + v*d(u) - d(u)*v + u*d(v) - d(v)*u", "0", at_r1),
        ("limit r=1: [u, du] = (h+h')(dv u - du v)", "u*d(u) - d(u)*u",
         "(h + hp)*(d(v)*u - d(u)*v)", at_r1),
    ]
