"""Connections, torsion, curvature, the semi-left-linear tensor product,
metrics, invariance and compatibility, and the connection and metric files.

Connection coefficients follow V_s(theta^s') = sum_s'' phi_s^-1(V[s',s,s'']) theta^s''.
Every phi_s is a verified automorphism whose inverse is checked on every
generator (CalculusSpec refuses any other), so

    theta^s phi_s^-1(f) = f theta^s

for every f: the coefficient phi_s^-1(V[...]) of V_s, moved left across
theta^s, is V[...] again.  So neither nabla nor the torsion applies a
morphism to V: for alpha = sum_v f_v theta^v,

    nabla(alpha) = vartheta (x) alpha - sum_{s,v,s''} f_v V[v,s,s''] theta^s (x) theta^s'',
    Theta(theta^s) = Theta_0(theta^s) + sum_{s',s''} V[s,s',s''] theta^s' theta^s'',

where Theta_0 is the torsion of the zero connection.

Tensors of 1-forms are stored with all coefficients on the left; in the
semi-left-linear coordinates an element f theta^{u1} (x)_L ... the product
just concatenates words and multiplies coefficients.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Mapping, NamedTuple

from .algebra import LabelModule, Memo, NCPoly, _acc, join_terms
from .calculus import (CalculusSpec, CalculusError, GradedForm, _at, _strip_lines, d_form,
                       vartheta)
from .parsing import FileFormatError
from .report import Report
from .scalar import Scalar


def _key_table(spec, entries: Mapping, arity, kind) -> dict:
    """Direction-label key -> algebra element, for connections and metrics.

    Every key must be `arity` direction labels; values go through
    Presentation.element and zero entries are dropped.
    """
    labels = set(spec.directions.labels)
    table = {}
    for key, v in entries.items():
        if len(key) != arity or not set(key) <= labels:
            raise CalculusError(f"bad {kind} key {key!r}")
        v = spec.pres.element(v)
        if not v.is_zero():
            table[tuple(key)] = v
    return table


class Connection:
    """Parallel-transport coefficients V[s', s, s''] over the algebra.

    A connection is not changed after construction, so it keeps
    nabla(theta^v) per direction v, computed once.  The table's fill holds
    the spec and V, not the connection, so a dropped connection is freed
    at once.
    """

    def __init__(self, spec: CalculusSpec, entries: Mapping):
        self.spec = spec
        self.V = _key_table(spec, entries, 3, "connection")
        self._nabla_theta = Memo(partial(_nabla_theta_image, spec, self.V))

    def entry(self, sp, s, spp) -> NCPoly:
        return self.V.get((sp, s, spp), self.spec.pres.zero)

    def nabla_theta(self, v) -> "TensorA":
        """nabla(theta^v), computed on first use."""
        return self._nabla_theta[v]

    @staticmethod
    def zero(spec):
        return Connection(spec, {})

    def __repr__(self):
        body = ", ".join(f"V[{a},{b},{c}]={v}" for (a, b, c), v in sorted(self.V.items()))
        return f"Connection({body})"


def _nabla_theta_image(spec, V, v):
    return _nabla(spec, V, GradedForm.theta(spec, v))


def transport_theta(spec, conn: Connection, s, sp) -> GradedForm:
    """V_s(theta^{s'}) as a 1-form."""
    V, inverse = conn.V, spec.phi_inv(s)
    return GradedForm(spec, {(spp,): inverse.apply(V[(sp, s, spp)])
                             for spp in spec.directions.labels if (sp, s, spp) in V})


class TensorA(LabelModule):
    """Tensor products of 1-forms over the algebra, left coefficients.

    comps maps label tuples (u1, ..., un) to coefficients; the element is
    sum f * theta^{u1} (x) ... (x) theta^{un}.
    """

    __slots__ = ()

    def _word_str(self, w):
        return " " + " (x) ".join(f"theta[{s}]" for s in w)


def nabla_one_form(spec, conn: Connection, alpha: GradedForm) -> TensorA:
    """nabla(alpha) = vartheta (x) alpha - sum_s theta^s (x) V_s(alpha), with
    the transport part summed as f_v V[v,s,s''] (module docstring)."""
    return _nabla(spec, conn.V, alpha)


def _nabla(spec, V, alpha):
    if set(alpha.degrees()) - {1}:
        raise CalculusError("nabla expects a 1-form")
    th = vartheta(spec)
    comps = {}
    for (u,), lam in th.component(1).items():
        for (v,), f in alpha.comps.items():
            _acc(comps, (u, v), lam * spec.phi(u).apply(f))
    for (v, s, spp), c in V.items():
        f = alpha.comps.get((v,))
        if f is not None:
            _acc(comps, (s, spp), -(f * c))
    return TensorA(spec, comps)


def torsion(spec, conn: Connection) -> dict:
    """Torsion 2-forms Theta(theta^s), reduced to the basis: the spec's part
    plus sum_{s',s''} V[s,s',s''] theta^s' theta^s'' (module docstring)."""
    if spec.two_forms is None:
        raise CalculusError("torsion needs a two-form structure")
    parts = {}
    for (s, sp, spp), c in conn.V.items():
        parts.setdefault(s, {})[(sp, spp)] = c
    return {s: t + GradedForm._build(spec, parts.get(s, {}))
            for s, t in _torsion_part(spec).items()}


def _torsion_part(spec) -> dict:
    """Theta_0(theta^s) per direction s, kept by the spec."""
    return spec.derived[_zero_connection_torsion]


def _zero_connection_torsion(spec) -> dict:
    """theta^s vartheta - Delta(theta^s): the torsion of the zero connection."""
    th = vartheta(spec)
    return {s: GradedForm.theta(spec, s).wedge(th) - spec.two_forms.delta_theta(s)
            for s in spec.directions.labels}


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
        *rest, (key, coeff) = self.terms
        parts = []
        for k, c in rest:
            cs = str(-(c / coeff))
            mono = f"V[{k[0]},{k[1]},{k[2]}]"
            parts.append(mono if cs == "1" else f"-{mono}" if cs == "-1" else f"({cs})*{mono}")
        const = -(self.const / coeff)
        if not const.is_zero() or not parts:
            parts.append(str(const))
        return f"V[{key[0]},{key[1]},{key[2]}] = " + join_terms(parts)


class TorsionConditions(NamedTuple):
    equations: tuple

    def check(self, conn: Connection) -> Report:
        """One check per equation, at path `index.category`; a failing check
        names its equation and residue, formatted only when read."""
        rep = Report("torsion-free conditions")
        for i, eq in enumerate(self.equations):
            res = eq.residue(conn)
            rep.add(f"{i}.{eq.category}", res.is_zero(), eq, "; residue ", res)
        return rep

    def __str__(self):
        return "\n".join(f"[{eq.category}] {eq}" for eq in self.equations)


def torsion_free_conditions(spec) -> TorsionConditions:
    """Linear conditions on V for vanishing torsion, split by pair class.

    Biangle and triangle pairs force scalar values; inside each quadrangle
    class the pair that the 2-form structure eliminates, theta^m =
    -sum kappa_uv theta^u theta^v, couples to every kept pair (u, v).
    The conditions depend only on the spec, which keeps them.
    """
    return spec.derived[_torsion_free_conditions]


def _torsion_free_conditions(spec) -> TorsionConditions:
    d = spec.directions
    if not d.classified:
        raise CalculusError("torsion conditions need a group-classified direction set")
    if spec.mode != "automorphism":
        raise CalculusError("torsion conditions apply to automorphism-mode calculi")
    if spec.two_forms is None:
        raise CalculusError("torsion conditions need a two-form structure")
    t = spec.weights
    one = Scalar.one()
    eqs = []

    def vkey_sort(item):
        return d.order_key(item[0])

    for s in d.labels:
        for (u, v) in d.biangles:
            const = (one / t[v]) if u == s else Scalar.zero()
            eqs.append(LinearEquation("biangle", (((s, u, v), one),), const))
        for (u, v), target in sorted(d.triangles.items(), key=vkey_sort):
            const = Scalar.zero()
            if u == s:
                const = const + one / t[v]
            if target == s:
                const = const - t[s] / (t[u] * t[v])
            eqs.append(LinearEquation("triangle", (((s, u, v), one),), const))
        for m, combo in spec.two_forms.reduction.items():
            for minus_kappa, (u, v) in combo:
                const = Scalar.zero()
                if u == s:
                    const = const + one / t[v]
                if m[0] == s:
                    const = const + minus_kappa / t[m[1]]
                terms = sorted([((s, u, v), one), ((s, m[0], m[1]), minus_kappa)],
                               key=vkey_sort)
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
    """Extension nabla(omega (x) E) = d omega (x) E + (-1)^r omega nabla(E).

    The extension is additive in omega, so with t = sum_v alpha_v (x) theta^v
    and nabla(theta^v) = sum_z beta_vz (x) theta^z it is
    sum_v d(alpha_v) (x) theta^v - sum_{v,z} (alpha_v beta_vz) (x) theta^z:
    one d per slot v and one wedge per pair (v, z).
    """
    comps = {}
    alphas = {}
    for (u, v), f in t.comps.items():
        alphas.setdefault(v, {})[(u,)] = f
    for v in sorted(alphas):
        alpha = GradedForm(spec, alphas[v])
        for pair, c in d_form(spec, alpha).component(2).items():
            _acc(comps, (pair, v), c)
        betas = {}
        for (w, z), g in conn.nabla_theta(v).comps.items():
            betas.setdefault(z, {})[(w,)] = g
        for z, beta in betas.items():
            for pair, c in alpha.wedge(GradedForm(spec, beta)).component(2).items():
                _acc(comps, (pair, z), -c)
    return WedgeTensor(spec, comps)


def curvature(spec, conn: Connection, alpha: GradedForm) -> WedgeTensor:
    """R(alpha) = -nabla^2(alpha); nabla(theta^v) is read from the connection."""
    words = tuple(alpha.comps)
    if len(words) == 1 and len(words[0]) == 1 and alpha.comps[words[0]].is_one():
        return -nabla_on_tensor(spec, conn, conn.nabla_theta(words[0][0]))
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

    def _word_str(self, w):
        return " " + " (x)L ".join(f"theta[{s}]" for s in w)


def transport_ltensor(spec, conn: Connection, s, t: LTensor) -> LTensor:
    """V_s on semi-left-linear tensors: factorwise, with phi_s^-1 twist."""
    out = LTensor.zero(spec)
    images = {u: LTensor.from_one_form(transport_theta(spec, conn, s, u))
              for u in sorted({u for w in t.comps for u in w})}
    for w, f in t.comps.items():
        part = LTensor(spec, {(): spec.phi_inv(s).apply(f)})
        for u in w:
            part = part.tensor(images[u])
        out = out + part
    return out


# ---------------------------------------------------------------------------
# metrics


class Metric:
    def __init__(self, spec, entries: Mapping, symmetric=False):
        self.spec = spec
        self.symmetric = symmetric
        self.g = _key_table(spec, entries, 2, "metric")
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
                    f"phi_{s}(g[{a},{b}]) = ", lhs, f", required {mu} * g = ", rhs)
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
        word = sum(((pres.letters(i)[e < 0],) * abs(e) for i, e in enumerate(exps)), ())
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
    """Both routes: the component equation and V_s(g) = g; they must agree.

    The component route compares phi_s(g[s1,s2]) with
    sum_{s',s''} g[s',s''] V[s',s,s1] V[s'',s,s2], summed through
    h[s''] = sum_s' g[s',s''] V[s',s,s1] once per (s, s1).
    """
    rep = Report("metric compatibility")
    labels = spec.directions.labels
    bad_components = set()
    for s in labels:
        for s1 in labels:
            h = {}
            for (sp, spp), gv in g.g.items():
                v1 = conn.V.get((sp, s, s1))
                if v1 is not None:
                    _acc(h, spp, gv * v1)
            for s2 in labels:
                lhs = spec.phi(s).apply(g.entry(s1, s2))
                rhs = spec.pres.zero
                for spp, hv in h.items():
                    v2 = conn.V.get((spp, s, s2))
                    if v2 is not None:
                        rhs = rhs + hv * v2
                ok = lhs == rhs
                if not ok:
                    bad_components.add(s)
                if not ok or not g.entry(s1, s2).is_zero():
                    rep.add(f"component.{s}.g[{s1},{s2}]", ok,
                            "phi(g) = ", lhs, ", sum g V V = ", rhs)
    gl = g.as_ltensor()
    tensor_bad = set()
    for s in labels:
        res = transport_ltensor(spec, conn, s, gl) - gl
        rep.add(f"transport.{s}", res.is_zero(), f"V_{s}(g) - g = ", res)
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
        rep.add(f"torsion.{s}", t.is_zero(), f"Theta(theta^{s}) = ", t)
    rep.merge(metric_compatibility(spec, conn, g), "compat")
    return rep


# ---------------------------------------------------------------------------
# connection and metric files


def _table(spec, text, symbol, arity, what, flag=None):
    """Lines `symbol[l1,...,ln] = expr` as {(l1, ..., ln): element}, and
    whether a line that is just `flag` occurs.  Every label must be a
    direction and no key may repeat; either error names its line."""
    labels = ",".join([r"([^,\]]+)"] * arity)
    pattern = re.compile(rf"{symbol}\[{labels}\]\s*=\s*(.+)")
    entries = {}
    flagged = False
    for n, line in _strip_lines(text):
        if line == flag:
            flagged = True
            continue
        with _at(n):
            m = pattern.fullmatch(line)
            if not m:
                raise FileFormatError(f"bad {what} line: {line!r}")
            *key, expr = (g.strip() for g in m.groups())
            key = spec.directions.word(key)
            if key in entries:
                raise FileFormatError(f"repeated entry {symbol}[{','.join(key)}]")
            entries[key] = spec.pres.parse(expr)
    return entries, flagged


def load_connection(spec, text):
    """The Connection of a `V[s,u,t] = expr` table."""
    return Connection(spec, _table(spec, text, "V", 3, "connection")[0])


def load_metric(spec, text):
    """The Metric of a `g[s,u] = expr` table, with an optional `symmetric` line."""
    entries, symmetric = _table(spec, text, "g", 2, "metric", flag="symmetric")
    if not entries:
        raise FileFormatError("no g[...] entry in the metric file")
    return Metric(spec, entries, symmetric=symmetric)
