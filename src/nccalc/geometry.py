"""Connections, torsion, curvature, the semi-left-linear tensor product,
metrics, invariance and compatibility.

Connection coefficients follow V_s(theta^s') = sum_s'' phi_s^-1(V[s',s,s'']) theta^s''.
Tensors of 1-forms are stored with all coefficients on the left; in the
semi-left-linear coordinates an element f theta^{u1} (x)_L ... the product
just concatenates words and multiplies coefficients.  Conversion to the
plain module tensor product rescales each word by the theta-image factors
of the automorphisms.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .algebra import LabelModule, NCPoly, _acc
from .calculus import CalculusSpec, CalculusError, GradedForm, d_form, vartheta
from .report import Report
from .scalar import Scalar


class Connection:
    """Parallel-transport coefficients V[s', s, s''] over the algebra."""

    def __init__(self, spec: CalculusSpec, entries: Mapping):
        self.spec = spec
        self.V = {}
        labels = set(spec.directions.labels)
        for key, v in entries.items():
            if len(key) != 3 or not set(key) <= labels:
                raise CalculusError(f"bad connection key {key!r}")
            if isinstance(v, str):
                v = spec.pres.parse(v)
            elif isinstance(v, (int, Scalar)):
                v = spec.pres.const(v)
            if not v.is_zero():
                self.V[tuple(key)] = v

    def entry(self, sp, s, spp) -> NCPoly:
        return self.V.get((sp, s, spp), self.spec.pres.zero)

    @staticmethod
    def zero(spec):
        return Connection(spec, {})

    def __repr__(self):
        body = ", ".join(f"V[{a},{b},{c}]={v}" for (a, b, c), v in sorted(self.V.items()))
        return f"Connection({body})"


def transport_theta(spec, conn: Connection, s, sp) -> GradedForm:
    """V_s(theta^{s'}) as a 1-form."""
    comps = {}
    for spp in spec.directions.labels:
        v = conn.entry(sp, s, spp)
        if not v.is_zero():
            comps[(spp,)] = spec.phi_inv(s).apply(v)
    return GradedForm._build(spec, comps)


def transport_one_form(spec, conn: Connection, s, alpha: GradedForm) -> GradedForm:
    """V_s on a 1-form: V_s(f E) = phi_s^-1(f) V_s(E)."""
    if set(alpha.degrees()) - {1}:
        raise CalculusError("transport expects a 1-form")
    out = GradedForm.zero(spec)
    for (sp,), f in alpha.component(1).items():
        out = out + spec.phi_inv(s).apply(f) * transport_theta(spec, conn, s, sp)
    return out


class TensorA(LabelModule):
    """Tensor products of 1-forms over the algebra, left coefficients.

    comps maps label tuples (u1, ..., un) to coefficients; the element is
    sum f * theta^{u1} (x) ... (x) theta^{un}.
    """

    __slots__ = ()

    def _word_str(self, w):
        return " " + " (x) ".join(f"theta[{s}]" for s in w)


def nabla_one_form(spec, conn: Connection, alpha: GradedForm) -> TensorA:
    """nabla(alpha) = vartheta (x) alpha - sum_s theta^s (x) V_s(alpha)."""
    if set(alpha.degrees()) - {1}:
        raise CalculusError("nabla expects a 1-form")
    th = vartheta(spec)
    comps = {}
    for (u,), lam in th.component(1).items():
        for (v,), f in alpha.component(1).items():
            _acc(comps, (u, v), lam * spec.phi(u).apply(f))
    for s in spec.directions.labels:
        vs = transport_one_form(spec, conn, s, alpha)
        for (v,), f in vs.component(1).items():
            _acc(comps, (s, v), -spec.phi(s).apply(f))
    return TensorA(spec, comps)


def wedge_projection(spec, t: TensorA) -> GradedForm:
    """The canonical projection onto 2-forms."""
    if any(len(w) != 2 for w in t.comps):
        raise CalculusError("projection expects a 2-tensor")
    return GradedForm._build(spec, t.comps)


def torsion(spec, conn: Connection) -> dict:
    """Torsion 2-forms Theta(theta^s), reduced to the basis."""
    if spec.two_forms is None:
        raise CalculusError("torsion needs a two-form structure")
    th = vartheta(spec)
    out = {}
    for s in spec.directions.labels:
        t = GradedForm.theta(spec, s).wedge(th) - spec.two_forms.delta_theta(s)
        for sp in spec.directions.labels:
            t = t + GradedForm.theta(spec, sp).wedge(transport_theta(spec, conn, s=sp, sp=s))
        out[s] = t
    return out


def torsion_of_form(spec, conn: Connection, alpha: GradedForm) -> GradedForm:
    """Theta(alpha) = d alpha - pi(nabla alpha); cross-check path."""
    return d_form(spec, alpha) - wedge_projection(spec, nabla_one_form(spec, conn, alpha))


class LinearEquation(NamedTuple):
    category: str       # biangle | triangle | quadrangle
    terms: tuple        # ((vkey, Scalar), ...) sorted by vkey
    const: Scalar       # equation: sum terms + const = 0

    def residue(self, conn: Connection):
        pres = conn.spec.pres
        acc = pres.const(self.const)
        for (sp, s, spp), c in self.terms:
            acc = acc + conn.entry(sp, s, spp) * c
        return acc

    def __str__(self):
        # isolate the largest unknown: V[key] = rest
        terms = list(self.terms)
        key, coeff = terms[-1]
        rest = []
        for k, c in terms[:-1]:
            rest.append((k, -(c / coeff)))
        const = -(self.const / coeff)
        out = f"V[{key[0]},{key[1]},{key[2]}] ="
        first = True
        for k, c in rest:
            cs = str(c)
            mono = f"V[{k[0]},{k[1]},{k[2]}]"
            if cs == "1":
                piece = mono
            elif cs == "-1":
                piece = f"-{mono}"
            else:
                piece = f"({cs})*{mono}"
            out += f" {piece}" if first else (f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}")
            first = False
        if not const.is_zero() or first:
            cs = str(const)
            if first:
                out += f" {cs}"
            elif cs.startswith("-"):
                out += f" - {cs[1:]}"
            else:
                out += f" + {cs}"
        return out


class TorsionConditions(NamedTuple):
    equations: tuple

    def check(self, conn: Connection) -> Report:
        rep = Report("torsion-free conditions")
        for eq in self.equations:
            res = eq.residue(conn)
            rep.add(str(eq), res.is_zero(), f"residue {res}")
        return rep

    def __str__(self):
        return "\n".join(f"[{eq.category}] {eq}" for eq in self.equations)


def torsion_free_conditions(spec) -> TorsionConditions:
    """Linear conditions on V for vanishing torsion, split by pair class.

    Biangle and triangle pairs force scalar values; inside each quadrangle
    class the eliminated pair couples to every kept pair.
    """
    d = spec.directions
    if not d.classified:
        raise CalculusError("torsion conditions need a group-classified direction set")
    if spec.mode != "automorphism":
        raise CalculusError("torsion conditions apply to automorphism-mode calculi")
    t = spec.weights
    eqs = []
    quad_members = {p for cls in d.quad_classes for p in cls}
    order = {s: i for i, s in enumerate(d.labels)}

    def vkey_sort(item):
        (sp, s, spp), _ = item
        return (order[sp], order[s], order[spp])

    for s in d.labels:
        for (u, v) in sorted((p for p in d.biangles), key=lambda p: (order[p[0]], order[p[1]])):
            const = (Scalar.one() / t[v]) if u == s else Scalar.zero()
            eqs.append(LinearEquation("biangle",
                                      (((s, u, v), Scalar.one()),), const))
        for (u, v), target in sorted(d.triangles.items(),
                                     key=lambda kv: (order[kv[0][0]], order[kv[0][1]])):
            const = Scalar.zero()
            if u == s:
                const = const + Scalar.one() / t[v]
            if target == s:
                const = const - t[s] / (t[u] * t[v])
            eqs.append(LinearEquation("triangle",
                                      (((s, u, v), Scalar.one()),), const))
        for cls in d.quad_classes:
            if len(cls) < 2:
                continue
            m = max(cls, key=lambda p: (order[p[0]], order[p[1]]))
            for (u, v) in cls:
                if (u, v) == m:
                    continue
                kappa = (t[m[0]] * t[m[1]]) / (t[u] * t[v])
                const = Scalar.zero()
                if u == s:
                    const = const + Scalar.one() / t[v]
                if m[0] == s:
                    const = const - kappa / t[m[1]]
                terms = sorted([((s, u, v), Scalar.one()),
                                ((s, m[0], m[1]), -kappa)], key=vkey_sort)
                eqs.append(LinearEquation("quadrangle", tuple(terms), const))
    return TorsionConditions(tuple(eqs))


# ---------------------------------------------------------------------------
# curvature


class WedgeTensor(LabelModule):
    """Elements of Omega^2 (x) Omega^1: reduced 2-form words tensor a theta.

    comps maps ((a, b), v) to the coefficient of theta^a theta^b (x) theta^v.
    """

    __slots__ = ()

    def _word_str(self, k):
        (a, b), v = k
        return f" theta[{a}]*theta[{b}] (x) theta[{v}]"


def nabla_on_tensor(spec, conn: Connection, t: TensorA) -> WedgeTensor:
    """Extension nabla(omega (x) E) = d omega (x) E + (-1)^r omega nabla(E)."""
    comps = {}
    for (u, v), f in t.comps.items():
        omega = f * GradedForm.theta(spec, u)
        dom = d_form(spec, omega)
        for pair, c in dom.component(2).items():
            _acc(comps, (pair, v), c)
        nb = nabla_one_form(spec, conn, GradedForm.theta(spec, v))
        for (w, z), g in nb.comps.items():
            two = omega.wedge(g * GradedForm.theta(spec, w))
            for pair, c in two.component(2).items():
                _acc(comps, (pair, z), -c)
    return WedgeTensor(spec, comps)


def curvature(spec, conn: Connection, alpha: GradedForm) -> WedgeTensor:
    """R(alpha) = -nabla^2(alpha)."""
    return -nabla_on_tensor(spec, conn, nabla_one_form(spec, conn, alpha))


# ---------------------------------------------------------------------------
# the semi-left-linear tensor product


class LTensor(LabelModule):
    """Tensors in semi-left-linear coordinates: products concatenate words."""

    __slots__ = ()

    @staticmethod
    def theta(spec, *labels):
        return LTensor(spec, {tuple(labels): spec.pres.one})

    @staticmethod
    def from_one_form(alpha: GradedForm):
        if set(alpha.degrees()) - {1}:
            raise CalculusError("expected a 1-form")
        return LTensor(alpha.spec, {(s,): c for (s,), c in alpha.component(1).items()})

    def tensor(self, other: "LTensor") -> "LTensor":
        """(f Theta_w) (x)_L (g Theta_u) = (f g) Theta_{wu}."""
        comps = {}
        for w, f in self.comps.items():
            for u, g in other.comps.items():
                _acc(comps, w + u, f * g)
        return LTensor(self.spec, comps)

    def to_plain(self) -> TensorA:
        """Rewrite in module tensor coordinates (theta-image scalings)."""
        return TensorA(self.spec, {w: f * _word_scaling(self.spec, w).inverse()
                                   for w, f in self.comps.items()})

    @staticmethod
    def from_plain(spec, t: TensorA) -> "LTensor":
        return LTensor(spec, {w: f * _word_scaling(spec, w) for w, f in t.comps.items()})

    def _word_str(self, w):
        return " " + " (x)L ".join(f"theta[{s}]" for s in w)


def _word_scaling(spec, w) -> Scalar:
    """prod_{i<j} theta_scale(w_i, w_j): the factor from plain to L coordinates."""
    gamma = Scalar.one()
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            gamma = gamma * spec.theta_scale(w[i], w[j])
    return gamma


def tensor_L(spec, a: LTensor, b: LTensor) -> LTensor:
    return a.tensor(b)


def transport_ltensor(spec, conn: Connection, s, t: LTensor) -> LTensor:
    """V_s on semi-left-linear tensors: factorwise, with phi_s^-1 twist."""
    out = LTensor.zero(spec)
    for w, f in t.comps.items():
        part = LTensor(spec, {(): spec.phi_inv(s).apply(f)})
        for u in w:
            part = part.tensor(LTensor.from_one_form(transport_theta(spec, conn, s, u)))
        out = out + part
    return out


# ---------------------------------------------------------------------------
# metrics


class Metric:
    def __init__(self, spec, entries: Mapping, symmetric=False):
        self.spec = spec
        self.symmetric = symmetric
        self.g = {}
        labels = set(spec.directions.labels)
        for key, v in entries.items():
            if len(key) != 2 or not set(key) <= labels:
                raise CalculusError(f"bad metric key {key!r}")
            if isinstance(v, str):
                v = spec.pres.parse(v)
            elif isinstance(v, (int, Scalar)):
                v = spec.pres.const(v)
            if not v.is_zero():
                self.g[tuple(key)] = v
        if symmetric:
            for (a, b), v in self.g.items():
                if self.g.get((b, a), spec.pres.zero) != v:
                    raise CalculusError(f"metric is not symmetric at ({a},{b})")

    def entry(self, a, b) -> NCPoly:
        return self.g.get((a, b), self.spec.pres.zero)

    def as_ltensor(self) -> LTensor:
        return LTensor(self.spec, {w: c for w, c in self.g.items()})

    def __repr__(self):
        return "Metric(" + ", ".join(f"g[{a},{b}]={v}" for (a, b), v in sorted(self.g.items())) + ")"


def metric_invariance_conditions(spec, g: Metric) -> Report:
    """phi_s(g) = g, componentwise, using the theta-image scalings.

    Each component must satisfy phi_s(g_ab) = mu * g_ab with
    mu = (c_{s,a} c_{s,b})^-1; the report records the required multiplier.
    """
    rep = Report("metric invariance")
    for s in spec.directions.labels:
        for (a, b), v in sorted(g.g.items()):
            mu = (spec.theta_scale(s, a) * spec.theta_scale(s, b)).inverse()
            lhs = spec.phi(s).apply(v)
            rhs = v * mu
            rep.add(f"phi_{s}.g[{a},{b}].scale_{mu}", lhs == rhs,
                    f"phi_{s}(g[{a},{b}]) = {lhs}, required {mu} * g = {rhs}")
    return rep


def invariance_scaling_targets(spec) -> dict:
    """Required multiplier mu for each direction and component pair."""
    out = {}
    for s in spec.directions.labels:
        for a in spec.directions.labels:
            for b in spec.directions.labels:
                out[(s, a, b)] = (spec.theta_scale(s, a) * spec.theta_scale(s, b)).inverse()
    return out


def monomial_scaling(spec, s, p: NCPoly):
    """If phi_s(p) = mu p for a scalar mu, return mu, else None."""
    img = spec.phi(s).apply(p)
    if p.is_zero():
        return Scalar.one()
    (w0, c0) = next(iter(p.terms.items()))
    target = img.terms.get(w0)
    if target is None:
        return None
    mu = target / c0
    if img == p * mu:
        return mu
    return None


def invariant_monomial_scan(spec, exponent_bound=3) -> dict:
    """Monomials g_ab = prod g_i^{e_i} matching the invariance scalings.

    Scans per-generator exponents with |e| <= exponent_bound (negative
    only on invertible generators); results are grouped by component pair.
    Bounded search: absence of a hit is not a proof of absence.
    """
    import itertools

    pres = spec.pres
    ranges = []
    for i, gen in enumerate(pres.generators):
        lo = -exponent_bound if gen.invertible else 0
        ranges.append(range(lo, exponent_bound + 1))
    monos = []
    for exps in itertools.product(*ranges):
        if all(e == 0 for e in exps):
            continue
        word = tuple((i, e) for i, e in enumerate(exps) if e != 0)
        p = pres.poly({word: Scalar.one()})
        if len(p.terms) != 1:
            continue  # not a normal monomial
        scal = {}
        ok = True
        for s in spec.directions.labels:
            mu = monomial_scaling(spec, s, p)
            if mu is None:
                ok = False
                break
            scal[s] = mu
        if ok:
            monos.append((p, scal))
    targets = invariance_scaling_targets(spec)
    out = {}
    for a in spec.directions.labels:
        for b in spec.directions.labels:
            hits = [p for (p, scal) in monos
                    if all(scal[s] == targets[(s, a, b)] for s in spec.directions.labels)]
            if hits:
                out[(a, b)] = hits
    return out


def metric_compatibility(spec, conn: Connection, g: Metric) -> Report:
    """Both routes: the component equation and V_s(g) = g; they must agree."""
    rep = Report("metric compatibility")
    labels = spec.directions.labels
    bad_components = set()
    for s in labels:
        for s1 in labels:
            for s2 in labels:
                lhs = spec.phi(s).apply(g.entry(s1, s2))
                rhs = spec.pres.zero
                for sp in labels:
                    v1 = conn.entry(sp, s, s1)
                    if v1.is_zero():
                        continue
                    for spp in labels:
                        v2 = conn.entry(spp, s, s2)
                        if v2.is_zero():
                            continue
                        rhs = rhs + g.entry(sp, spp) * v1 * v2
                ok = lhs == rhs
                if not ok:
                    bad_components.add(s)
                if not ok or not g.entry(s1, s2).is_zero():
                    rep.add(f"component.{s}.g[{s1},{s2}]", ok,
                            f"phi(g) = {lhs}, sum g V V = {rhs}")
    gl = g.as_ltensor()
    tensor_bad = set()
    for s in labels:
        res = transport_ltensor(spec, conn, s, gl) - gl
        rep.add(f"transport.{s}", res.is_zero(), f"V_{s}(g) - g = {res}")
        if not res.is_zero():
            tensor_bad.add(s)
    rep.add("paths_agree", bad_components == tensor_bad,
            f"component route flags {sorted(bad_components)}, "
            f"transport route flags {sorted(tensor_bad)}")
    return rep


def levi_civita_check(spec, conn: Connection, g: Metric) -> Report:
    """Torsion-free and metric-compatible; never asserts uniqueness."""
    rep = Report("levi-civita")
    tor = torsion(spec, conn)
    for s, t in tor.items():
        rep.add(f"torsion.{s}", t.is_zero(), f"Theta(theta^{s}) = {t}")
    rep.merge(metric_compatibility(spec, conn, g), "compat")
    return rep
