"""Named verification suites: structural identities plus randomized properties.

The structural checks (the inner identities, central 1-forms and the
differentiability of an automorphism) live here with the suites that run
them; `nccalc.calculus` still resolves their names.
"""

from __future__ import annotations

import random

from .algebra import AlgebraMorphism, word_from_letters
from .calculus import (CalculusError, CalculusSpec, GradedForm, delta, differential, d_form,
                       graded_commutator, vartheta, verify_twisted_two_forms)
from .report import Report
from .scalar import Scalar


# ---------------------------------------------------------------------------
# structural checks of a calculus and of an automorphism


def verify_inner_identities(spec: CalculusSpec) -> Report:
    """The structural identities of an inner calculus, on generators and thetas."""
    rep = Report("inner identities")
    ts = spec.two_forms
    if ts is None:
        raise CalculusError("verify_inner_identities needs a two-form structure")
    th = vartheta(spec)
    zeta = d_form(spec, th) - th.wedge(th)
    rep.add("zeta_matches_table", zeta == ts.zeta_form(), "d(vartheta) - vartheta^2 = ", zeta)
    gens = [spec.pres.gen(g.name) for g in spec.pres.generators]
    for g, f in zip(spec.pres.generators, gens):
        res = zeta * f - f * zeta
        rep.add(f"zeta_central.{g.name}", res.is_zero(), res)
    samples = [GradedForm.theta(spec, s) for s in spec.directions.labels]
    samples += [f * GradedForm.theta(spec, s)
                for f, g in zip(gens, spec.pres.generators)
                for s in spec.directions.labels[:1]]
    for i, w in enumerate(samples):
        res = delta(spec, delta(spec, w)) + graded_commutator(spec, zeta, w)
        rep.add(f"delta_square.{i}", res.is_zero(), res)
    res = delta(spec, zeta)
    rep.add("delta_zeta", res.is_zero(), res)
    res = d_form(spec, zeta) - graded_commutator(spec, th, zeta)
    rep.add("d_zeta", res.is_zero(), res)
    return rep


def is_central_one_form(spec: CalculusSpec, alpha: GradedForm):
    """Lemma: alpha commutes with the algebra iff a_s phi_s(f) = f a_s."""
    if set(alpha.degrees()) - {1}:
        raise CalculusError("centrality test expects a 1-form")
    for (s,), a in alpha.component(1).items():
        for g in spec.pres.generators:
            f = spec.pres.gen(g.name)
            if a * spec.phi(s).apply(f) != f * a:
                return False, (s, g.name)
    return True, None


def central_one_forms_probe(spec: CalculusSpec, degree_bound=4):
    """Bounded search for nonzero central 1-forms (simplicity cross-check).

    Returns a dict direction -> witness coefficient for every direction
    where a nonzero solution of a_s phi_s(f) = f a_s exists with a_s in
    the span of normal words up to degree_bound.
    """
    from .linalg import normal_words, nullspace_vector, span_rows

    pres = spec.pres
    witnesses = {}
    words = normal_words(pres, degree_bound)
    gens = [pres.gen(g.name) for g in pres.generators]
    for s in spec.directions.labels:
        def image(w, phi=spec.phi(s)):  # a_s phi_s(f) - f a_s, row key (f, result word)
            wp = pres.poly({w: Scalar.one()})
            return (((i, rw), rc) for i, f in enumerate(gens)
                    for rw, rc in (wp * phi.apply(f) - f * wp).terms.items())

        vec = nullspace_vector(list(span_rows(words, image).values()), len(words))
        if vec is not None:
            witnesses[s] = pres.poly(dict(zip(words, vec)))
    return witnesses


def check_differentiability(spec: CalculusSpec, phi: AlgebraMorphism,
                            theta_images=None, simple=False) -> Report:
    """Can phi extend to the forms with the given theta images?

    Checks (i) d phi(g) = sum_s phi(e_s g) phi(theta^s) on generators,
    (ii) phi(theta^s) f = (phi o phi_s o phi^-1)(f) phi(theta^s), and
    (iii) phi(vartheta) = vartheta for simple calculi, otherwise that the
    difference is a central 1-form.
    """
    rep = Report("differentiability")
    if phi.inverse is None or not phi.verified:
        raise CalculusError("phi must be verified with an inverse")
    labels = spec.directions.labels
    images = {}
    for s in labels:
        img = None if theta_images is None else theta_images.get(s)
        if img is None:
            img = GradedForm.theta(spec, s)
        elif not isinstance(img, GradedForm):
            img = GradedForm.theta(spec, s).mul_left(spec.pres.element(img))
        images[s] = img
    for g in spec.pres.generators:
        f = spec.pres.gen(g.name)
        lhs = differential(spec, phi.apply(f))
        rhs = GradedForm.zero(spec)
        for s in labels:
            rhs = rhs + phi.apply(spec.e(s, f)) * images[s]
        rep.add(f"d_phi.{g.name}", lhs == rhs, lhs - rhs)
    for s in labels:
        conj = phi.inverse.then(spec.phi(s)).then(phi)  # phi o phi_s o phi^-1
        for g in spec.pres.generators:
            f = spec.pres.gen(g.name)
            res = images[s] * f - conj.apply(f) * images[s]
            rep.add(f"theta_commutation.{s}.{g.name}", res.is_zero(), res)
    th = vartheta(spec)
    phi_th = GradedForm.zero(spec)
    for s in labels:
        phi_th = phi_th + phi.apply(spec.lambdas[s]) * images[s]
    corr = phi_th - th
    if simple:
        rep.add("phi_vartheta_fixed", corr.is_zero(), "phi(vartheta) - vartheta = ", corr)
    elif corr.is_zero():
        rep.add("phi_vartheta_fixed", True)
    else:
        central, witness = is_central_one_form(spec, corr)
        rep.add("phi_vartheta_central_correction", central,
                "vartheta_phi = ", corr, f", witness {witness}")
    return rep


# ---------------------------------------------------------------------------
# the suites


def random_poly(pres, rng, max_len=2, terms=2):
    alphabet = [l for i in range(len(pres.generators)) for l in pres.letters(i)]
    out = pres.zero
    for _ in range(rng.randint(1, terms)):
        length = rng.randint(0, max_len)
        word = tuple(rng.choice(alphabet) for _ in range(length))
        coeff = Scalar.from_int(rng.choice([-2, -1, 1, 2, 3]))
        out = out + pres.poly({word_from_letters(word): coeff})
    return out


def twisted_leibniz_holds(spec, s, f, g) -> bool:
    """e_s(f g) = e_s(f) phi_s(g) + f e_s(g)."""
    return spec.e(s, f * g) == spec.e(s, f) * spec.phi(s).apply(g) + f * spec.e(s, g)


def d_leibniz_holds(spec, f, g) -> bool:
    """d(f g) = (d f) g + f d g."""
    return differential(spec, f * g) == differential(spec, f) * g + f * differential(spec, g)


def d_squared(spec, f):
    """d(d f) for an algebra element f; zero wherever the calculus has 2-forms."""
    return d_form(spec, differential(spec, f))


def suite_inner(spec) -> Report:
    if spec.two_forms is None:
        rep = Report("inner identities")
        th = vartheta(spec)  # raises if [vartheta, f] != d f
        rep.add("vartheta_inner", True)
        rep.add("skipped_higher_order", True, "no 2-form structure (first order only)")
        return rep
    return verify_inner_identities(spec)


def suite_twisted_two_forms(spec) -> Report:
    rep = Report("twisted 2-forms")
    if spec.two_forms is None:
        rep.add("skipped", True, "no 2-form structure on this calculus")
        return rep
    return verify_twisted_two_forms(spec, spec.two_forms)


def suite_leibniz(spec, samples=25, seed=0) -> Report:
    """Twisted Leibniz for every e_s and the Leibniz rule for d."""
    rng = random.Random(seed)
    rep = Report("leibniz")
    fails = 0
    for k in range(samples):
        f = random_poly(spec.pres, rng)
        g = random_poly(spec.pres, rng)
        for s in spec.directions.labels:
            if not twisted_leibniz_holds(spec, s, f, g):
                fails += 1
                rep.add(f"twisted_leibniz.{k}.{s}", False, f"f={f}, g={g}")
        if not d_leibniz_holds(spec, f, g):
            fails += 1
            rep.add(f"d_leibniz.{k}", False, f"f={f}, g={g}")
    rep.add("samples", True, f"{samples} random pairs, {fails} failures")
    if fails:
        rep.add("zero_failures", False, f"{fails} failures")
    return rep


def suite_graded_leibniz(spec, samples=10, seed=1) -> Report:
    """d(w w') = dw w' + (-1)^r w dw' on random coefficiented theta words."""
    rep = Report("graded leibniz")
    if spec.two_forms is None:
        rep.add("skipped", True, "no 2-form structure")
        return rep
    rng = random.Random(seed)
    labels = spec.directions.labels
    fails = 0
    for k in range(samples):
        f = random_poly(spec.pres, rng, max_len=1)
        g = random_poly(spec.pres, rng, max_len=1)
        w = f * GradedForm.theta(spec, rng.choice(labels))
        wp = g * GradedForm.theta(spec, rng.choice(labels))
        lhs = d_form(spec, w.wedge(wp))
        rhs = d_form(spec, w).wedge(wp) - w.wedge(d_form(spec, wp))
        if lhs != rhs:
            fails += 1
            rep.add(f"pair.{k}", False, f"w={w}, w'={wp}")
    rep.add("samples", True, f"{samples} random pairs, {fails} failures")
    if fails:
        rep.add("zero_failures", False, f"{fails} failures")
    return rep


def suite_d2(spec, samples=25, seed=2) -> Report:
    """d(d(f)) = 0 on generators and random elements; d(d theta) = 0."""
    rep = Report("d squared")
    if spec.two_forms is None:
        rep.add("skipped", True, "no 2-form structure")
        return rep
    rng = random.Random(seed)
    for g in spec.pres.generators:
        res = d_squared(spec, spec.pres.gen(g.name))
        rep.add(f"generator.{g.name}", res.is_zero(), res)
    for s in spec.directions.labels:
        res = d_form(spec, d_form(spec, GradedForm.theta(spec, s)))
        rep.add(f"theta.{s}", res.is_zero(), res)
    fails = 0
    for k in range(samples):
        f = random_poly(spec.pres, rng)
        if not d_squared(spec, f).is_zero():
            fails += 1
            rep.add(f"random.{k}", False, str(f))
    rep.add("samples", True, f"{samples} random elements, {fails} failures")
    if fails:
        rep.add("zero_failures", False, f"{fails} failures")
    return rep


def suite_differentiability(spec) -> Report:
    """Every phi_s extends to the forms with the images phi_s(theta^u) the spec derives."""
    rep = Report("differentiability")
    labels = spec.directions.labels
    for s in labels:
        images = {u: spec.theta_image(s, u) for u in labels}
        rep.merge(check_differentiability(spec, spec.phi(s), images), prefix=f"phi_{s}")
    return rep


def property_suite(spec, samples=200, seed=7) -> Report:
    """The randomized property battery (twisted Leibniz, d Leibniz, d^2,
    zeta centrality, Delta^2 = -[zeta, .], move-left round trips, tensor_L
    associativity), run on one calculus."""
    from .geometry import LTensor  # here, so the other suites never load geometry

    rng = random.Random(seed)
    rep = Report("properties")
    labels = spec.directions.labels
    has2 = spec.two_forms is not None
    zeta = spec.two_forms.zeta_form() if has2 else None
    counts = {"twisted_leibniz": 0, "d_leibniz": 0, "d2": 0, "zeta_central": 0,
              "delta_square": 0, "move_left_round_trip": 0, "tensor_L_assoc": 0}
    fails = []
    for k in range(samples):
        f = random_poly(spec.pres, rng)
        g = random_poly(spec.pres, rng)
        s = rng.choice(labels)
        # twisted Leibniz
        counts["twisted_leibniz"] += 1
        if not twisted_leibniz_holds(spec, s, f, g):
            fails.append(("twisted_leibniz", k))
        # d Leibniz
        counts["d_leibniz"] += 1
        if not d_leibniz_holds(spec, f, g):
            fails.append(("d_leibniz", k))
        # d^2 = 0
        if has2:
            counts["d2"] += 1
            if not d_squared(spec, f).is_zero():
                fails.append(("d2", k))
            # zeta centrality
            counts["zeta_central"] += 1
            if not (zeta * f - f * zeta).is_zero():
                fails.append(("zeta_central", k))
            # Delta^2(omega) = -[zeta, omega]
            counts["delta_square"] += 1
            omega = f * GradedForm.theta(spec, s)
            res = delta(spec, delta(spec, omega)) + graded_commutator(spec, zeta, omega)
            if not res.is_zero():
                fails.append(("delta_square", k))
        # move-left round trip
        counts["move_left_round_trip"] += 1
        word = tuple(rng.choice(labels) for _ in range(rng.randint(1, 2)))
        if spec.phi_word_inv(word, spec.phi_word(word, f)) != f:
            fails.append(("move_left_round_trip", k))
        # tensor_L associativity
        counts["tensor_L_assoc"] += 1
        t1 = LTensor(spec, {(rng.choice(labels),): f})
        t2 = LTensor(spec, {(rng.choice(labels),): g})
        t3 = LTensor(spec, {(rng.choice(labels),): random_poly(spec.pres, rng, 1, 1)})
        if t1.tensor(t2).tensor(t3) != t1.tensor(t2.tensor(t3)):
            fails.append(("tensor_L_assoc", k))
    for name, n in counts.items():
        bad = [k for t, k in fails if t == name]
        if n == 0:
            rep.add(f"{name}", True, "skipped (no 2-form structure)")
        else:
            rep.add(f"{name}", not bad, f"{n} instances, failures at {bad[:5]}")
    return rep

