"""Named verification suites: structural identities plus randomized properties."""

from __future__ import annotations

import random

from .algebra import word_from_letters
from .calculus import (GradedForm, check_differentiability, delta, differential,
                       d_form, graded_commutator, vartheta, verify_inner_identities,
                       verify_twisted_two_forms)
from .report import Report
from .scalar import Scalar


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

