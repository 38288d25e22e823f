"""Differential calculi from automorphisms and twisted inner derivations.

A CalculusSpec fixes a direction set S, automorphisms phi_s and either
weights t_s (automorphism mode, e_s f = [phi_s(f) - f]/t_s) or twist
elements lambda_s (twisted mode, e_s f = lambda_s phi_s(f) - f lambda_s).
Automorphism mode is handled as the twisted special case lambda_s = 1/t_s.

Graded forms keep all algebra coefficients on the left of theta-words;
moving an element across theta^s applies phi_s.  Degree >= 2 words are
reduced to a chosen basis by the relations of a TwoFormStructure.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .algebra import AlgebraMorphism, LabelModule, NCPoly, _acc, normal_words
from .parsing import ParseError, parse_with_context
from .report import Report
from .scalar import Scalar, scalar


class CalculusError(ValueError):
    pass


class InconsistentCalculus(CalculusError):
    """Internal inconsistency, e.g. a derived structure failing its identity."""


# ---------------------------------------------------------------------------


class DirectionSet:
    """Ordered direction labels with an optional pair classification.

    For group-derived sets each ordered pair (s, s') is a biangle
    (product = unit), a triangle (product in S) or a quadrangle (anything
    else); quadrangles are grouped into classes of equal product.
    """

    def __init__(self, labels, biangles=None, triangles=None, quad_classes=None):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise CalculusError("duplicate direction labels")
        self.classified = biangles is not None
        self.biangles = frozenset(biangles or ())
        self.triangles = dict(triangles or {})
        self.quad_classes = tuple(tuple(c) for c in (quad_classes or ()))
        if self.classified:
            seen = set(self.biangles) | set(self.triangles)
            for cls in self.quad_classes:
                seen |= set(cls)
            every = {(s, t) for s in self.labels for t in self.labels}
            if seen != every:
                raise CalculusError("pair classification must cover S x S exactly")

    @staticmethod
    def from_group(elements: Mapping[str, object], mul, unit) -> "DirectionSet":
        """Classify pairs by the group product of their elements."""
        labels = tuple(elements)
        inv = {}
        biangles = []
        triangles = {}
        quads = {}
        by_elem = {}
        for l, e in elements.items():
            if e in by_elem:
                raise CalculusError(f"directions {by_elem[e]} and {l} share a group element")
            by_elem[e] = l
        if unit in by_elem:
            raise CalculusError("the group unit cannot be a direction")
        for s in labels:
            for t in labels:
                g = mul(elements[s], elements[t])
                if g == unit:
                    biangles.append((s, t))
                elif g in by_elem:
                    triangles[(s, t)] = by_elem[g]
                else:
                    quads.setdefault(g, []).append((s, t))
        classes = [tuple(v) for _, v in sorted(quads.items(), key=lambda kv: kv[1][0])]
        return DirectionSet(labels, biangles, triangles, classes)

    def index(self, s):
        return self.labels.index(s)

    def __repr__(self):
        return f"DirectionSet({','.join(self.labels)})"


def z_group(shifts: Mapping[str, int]) -> DirectionSet:
    return DirectionSet.from_group(shifts, lambda a, b: a + b, 0)


def zn_group(shifts: Mapping[str, tuple]) -> DirectionSet:
    return DirectionSet.from_group(
        shifts, lambda a, b: tuple(x + y for x, y in zip(a, b)),
        (0,) * len(next(iter(shifts.values()))))


def cyclic_group(shifts: Mapping[str, int], order: int) -> DirectionSet:
    return DirectionSet.from_group(shifts, lambda a, b: (a + b) % order, 0)


# ---------------------------------------------------------------------------


class CalculusSpec:
    """Algebra + directions + automorphisms + weights or twists."""

    def __init__(self, pres, directions: DirectionSet, autos: Mapping[str, AlgebraMorphism],
                 weights=None, lambdas=None, theta_scalings=None,
                 side_conditions=(), name=None):
        self.pres = pres
        self.directions = directions
        self.autos = dict(autos)
        self.side_conditions = tuple(side_conditions)
        self.name = name
        self.two_forms = None
        labels = directions.labels
        for s in labels:
            m = self.autos.get(s)
            if m is None:
                raise CalculusError(f"no automorphism for direction {s}")
            if not m.verified:
                raise CalculusError(f"automorphism for {s} is not verified: {m.violations}")
            if m.inverse is None:
                raise CalculusError(f"automorphism for {s} has no inverse")
        if lambdas is not None:
            if weights is not None:
                raise CalculusError("give either weights or twist elements, not both")
            self.mode = "twisted"
            self.weights = None
            self.lambdas = {s: (pres.parse(v) if isinstance(v, str) else v)
                            for s, v in lambdas.items()}
            for s in labels:
                if s not in self.lambdas:
                    raise CalculusError(f"no twist element for direction {s}")
        else:
            self.mode = "automorphism"
            weights = dict(weights or {})
            self.weights = {s: weights.get(s, Scalar.one()) for s in labels}
            for s, t in self.weights.items():
                if not isinstance(t, Scalar):
                    raise CalculusError(f"weight for {s} must be a Scalar")
                if t.is_zero():
                    raise CalculusError(f"weight t_{s} must be nonzero")
            self.lambdas = {s: pres.const(t.inverse()) for s, t in self.weights.items()}
        # necessary faithfulness condition: directions must be distinguishable
        for i, s in enumerate(labels):
            for t in labels[i + 1:]:
                same_phi = self.autos[s].equal_on_generators(self.autos[t])
                if self.mode == "automorphism" and same_phi:
                    raise CalculusError(f"automorphisms for {s} and {t} coincide on generators")
                if self.mode == "twisted" and same_phi and self.lambdas[s] == self.lambdas[t]:
                    raise CalculusError(f"directions {s} and {t} carry identical twisted data")
        self.theta_scalings = {}
        for (s, t), c in (theta_scalings or {}).items():
            self.theta_scalings[(s, t)] = c if isinstance(c, Scalar) else scalar(c)

    # -- basic maps

    def phi(self, s) -> AlgebraMorphism:
        return self.autos[s]

    def phi_inv(self, s) -> AlgebraMorphism:
        return self.autos[s].inverse

    def lambda_of(self, s) -> NCPoly:
        return self.lambdas[s]

    def e(self, s, f: NCPoly) -> NCPoly:
        lam = self.lambdas[s]
        return lam * self.autos[s].apply(f) - f * lam

    def phi_word(self, word, f: NCPoly) -> NCPoly:
        """phi_{s1} o ... o phi_sr applied to f, for word = (s1, ..., sr)."""
        for s in reversed(word):
            f = self.autos[s].apply(f)
        return f

    def phi_word_inv(self, word, f: NCPoly) -> NCPoly:
        for s in word:
            f = self.autos[s].inverse.apply(f)
        return f

    def theta_scale(self, s, t) -> Scalar:
        """Scaling factor in phi_s(theta^t) = c * theta^t (default 1)."""
        return self.theta_scalings.get((s, t), Scalar.one())

    def set_two_forms(self, ts: "TwoFormStructure"):
        self.two_forms = ts
        return self

    def __repr__(self):
        return f"CalculusSpec({self.name or self.pres!r}, mode={self.mode})"


# ---------------------------------------------------------------------------


class GradedForm(LabelModule):
    """Graded form with left coefficients over theta-words.

    comps maps theta-words (label tuples) to NCPoly; a word's degree is
    its length.
    """

    __slots__ = ()

    @staticmethod
    def from_poly(spec, p):
        if isinstance(p, (int, Scalar)):
            p = spec.pres.const(p)
        return GradedForm(spec, {(): p})

    @staticmethod
    def theta(spec, *labels):
        for s in labels:
            if s not in spec.directions.labels:
                raise CalculusError(f"unknown direction {s}")
        return GradedForm._build(spec, {tuple(labels): spec.pres.one})

    @staticmethod
    def _build(spec, comps):
        """Normalize: drop zeros, reduce words of degree >= 2 when possible."""
        ts = spec.two_forms
        if ts is None:
            return GradedForm(spec, comps)
        out = {}
        for w, c in comps.items():
            if len(w) < 2:
                _acc(out, w, c)
                continue
            for rw, rc in ts.reduce_word(w).items():
                _acc(out, rw, c * rc)
        return GradedForm(spec, out)

    def _new(self, comps):
        return GradedForm._build(self.spec, comps)

    def _coerce(self, other):
        if isinstance(other, GradedForm):
            if other.spec is not self.spec:
                raise CalculusError("forms live over different calculi")
            return other
        if isinstance(other, (int, Scalar, NCPoly)):
            return GradedForm.from_poly(self.spec, other)
        return None

    # -- queries

    def degrees(self):
        return sorted({len(w) for w in self.comps})

    def component(self, r):
        return {w: c for w, c in self.comps.items() if len(w) == r}

    def coefficient(self, word):
        return self.comps.get(tuple(word), self.spec.pres.zero)

    def degree_part(self, r):
        return GradedForm(self.spec, self.component(r))

    # -- arithmetic

    __radd__ = LabelModule.__add__

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, GradedForm):
            return self.wedge(other)
        if isinstance(other, (int, Scalar)):
            return self._new({w: k * other for w, k in self.comps.items()})
        if isinstance(other, NCPoly):
            return self.mul_right(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self * other
        if isinstance(other, NCPoly):
            return self.mul_left(other)
        return NotImplemented

    def mul_right(self, p: NCPoly):
        """Move p across every theta-word: theta^w p = phi_w(p) theta^w."""
        phi_word = self.spec.phi_word
        return self._new({w: c * phi_word(w, p) for w, c in self.comps.items()})

    def wedge(self, other: "GradedForm"):
        other = self._coerce(other)
        phi_word = self.spec.phi_word
        comps = {}
        for w, c in self.comps.items():
            for w2, c2 in other.comps.items():
                _acc(comps, w + w2, c * phi_word(w, c2))
        return self._new(comps)

    def __pow__(self, n):
        if n < 1:
            raise CalculusError("form powers must be positive")
        out = self
        for _ in range(n - 1):
            out = out.wedge(self)
        return out

    def substitute_params(self, bindings):
        return self._new({w: c.substitute_params(bindings) for w, c in self.comps.items()})

    # -- printing

    def __str__(self):
        if not self.comps:
            return "0"
        parts = []
        for w in sorted(self.comps, key=lambda w: (len(w), w)):
            c = self.comps[w]
            cs = str(c)
            ws = "*".join(f"theta[{s}]" for s in w)
            if not w:
                parts.append(cs if len(c.terms) == 1 else f"({cs})")
            elif c.is_one():
                parts.append(ws)
            elif (-c).is_one():
                parts.append(f"-{ws}")
            elif len(c.terms) == 1 and not cs.startswith("-"):
                parts.append(f"{cs}*{ws}")
            else:
                parts.append(f"({cs})*{ws}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"GradedForm({self})"


# ---------------------------------------------------------------------------
# two-form structure


class TwoFormStructure:
    """Degree-2 relations, the Delta table, zeta, and the word basis Xi."""

    def __init__(self, spec, basis, reduction, delta_table, zeta, relations=()):
        self.spec = spec
        self.basis = tuple(tuple(p) for p in basis)
        self.reduction = {tuple(k): tuple((c, tuple(p)) for c, p in v)
                          for k, v in reduction.items()}
        self.delta_table = {s: {tuple(p): v for p, v in tab.items()}
                            for s, tab in delta_table.items()}
        self.zeta = {tuple(p): v for p, v in zeta.items()}
        self.relations = tuple(relations)
        basis_set = set(self.basis)
        order = {s: i for i, s in enumerate(spec.directions.labels)}

        def pair_key(p):
            return (order[p[0]], order[p[1]])

        for k, v in self.reduction.items():
            if k in basis_set:
                raise CalculusError(f"pair {k} is both in the basis and reduced")
            for c, p in v:
                if p not in basis_set:
                    raise CalculusError(f"reduction of {k} leaves the basis ({p})")
                if pair_key(p) >= pair_key(k):
                    raise CalculusError(f"reduction of {k} must decrease the pair order")
        all_pairs = {(s, t) for s in spec.directions.labels for t in spec.directions.labels}
        if basis_set | set(self.reduction) != all_pairs:
            raise CalculusError("basis plus reduced pairs must cover S x S")
        for s, tab in self.delta_table.items():
            for p in tab:
                if p not in basis_set:
                    raise CalculusError(f"Delta(theta^{s}) must be expressed in the basis")
        for p in self.zeta:
            if p not in basis_set:
                raise CalculusError("zeta must be expressed in the basis")

    def reduce_word(self, word):
        """Reduce adjacent pairs left-to-right to a fixpoint; scalar coeffs."""
        out = {}
        stack = [(tuple(word), Scalar.one())]
        while stack:
            w, c = stack.pop()
            for i in range(len(w) - 1):
                red = self.reduction.get(w[i:i + 2])
                if red is not None:
                    for rc, rp in red:
                        stack.append((w[:i] + rp + w[i + 2:], c * rc))
                    break
            else:
                _acc(out, w, c)
        return out

    def delta_theta(self, s) -> GradedForm:
        tab = self.delta_table.get(s, {})
        return GradedForm._build(self.spec, tab)

    def zeta_form(self) -> GradedForm:
        return GradedForm._build(self.spec, self.zeta)

    def describe(self):
        lines = []
        lines.append("basis: " + ", ".join(f"theta[{a}]*theta[{b}]" for a, b in self.basis))
        for k in sorted(self.reduction):
            form = GradedForm._build(
                self.spec, {p: self.spec.pres.const(c) for c, p in self.reduction[k]})
            lines.append(f"theta[{k[0]}]*theta[{k[1]}] = {form}")
        for s in self.spec.directions.labels:
            lines.append(f"Delta(theta[{s}]) = {self.delta_theta(s)}")
        lines.append(f"zeta = {self.zeta_form()}")
        return "\n".join(lines)


def two_form_structure(spec: CalculusSpec) -> TwoFormStructure:
    """Derive the 2-form structure of a group-classified automorphism calculus.

    Biangles build zeta, triangles build the Delta table, and each
    quadrangle class imposes one vanishing relation used to eliminate its
    largest pair.  The derived structure is checked against the twisted
    master identity before being returned.
    """
    d = spec.directions
    if not d.classified:
        raise CalculusError("two_form_structure needs a group-classified direction set")
    if spec.mode != "automorphism":
        raise CalculusError("two_form_structure derives only in automorphism mode; "
                            "validate a candidate with verify_twisted_two_forms instead")
    t = spec.weights
    order = {s: i for i, s in enumerate(d.labels)}

    def pair_key(p):
        return (order[p[0]], order[p[1]])

    all_pairs = [(s, u) for s in d.labels for u in d.labels]
    reduction = {}
    relations = []
    for cls in d.quad_classes:
        rel = {(s, u): (t[s] * t[u]).inverse() for (s, u) in cls}
        relations.append(("quadrangle", dict(rel)))
        target = max(cls, key=pair_key)
        scale = -(t[target[0]] * t[target[1]])
        reduction[target] = tuple(
            (scale / (t[s] * t[u]), (s, u)) for (s, u) in cls if (s, u) != target)
    basis = [p for p in all_pairs if p not in reduction]
    delta_table = {}
    for (s, u), target in d.triangles.items():
        delta_table.setdefault(target, {})[(s, u)] = \
            spec.pres.const(t[target] / (t[s] * t[u]))
    zeta = {(s, u): spec.pres.const((t[s] * t[u]).inverse()) for (s, u) in d.biangles}
    ts = TwoFormStructure(spec, basis, reduction, delta_table, zeta, relations)
    rep = _master_identity_report(spec, ts)
    if not rep.ok:
        raise InconsistentCalculus(
            "derived 2-form structure violates the master identity:\n" + rep.text())
    return ts


def _master_identity_report(spec, ts: TwoFormStructure) -> Report:
    """The identity obtained by commuting f through zeta = d(theta) - theta^2.

    sum_{s,s'} ( f L_s phi_s(L_s') - L_s phi_s(L_s') phi_s phi_s'(f) ) th^s th^s'
      = sum_s ( f L_s - L_s phi_s(f) ) Delta(theta^s)
    reduced to the basis Xi, for every generator f.
    """
    rep = Report("master identity")
    labels = spec.directions.labels
    lam = {s: spec.lambda_of(s) for s in labels}
    phi_lam = {(s, u): spec.phi(s).apply(lam[u]) for s in labels for u in labels}
    for g in spec.pres.generators:
        f = spec.pres.gen(g.name)
        lhs = {}
        for s in labels:
            for u in labels:
                coeff = (f * lam[s] * phi_lam[(s, u)]
                         - lam[s] * phi_lam[(s, u)] * spec.phi(s).apply(spec.phi(u).apply(f)))
                if coeff.is_zero():
                    continue
                for rp, rc in ts.reduce_word((s, u)).items():
                    _acc(lhs, rp, coeff * rc)
        rhs = {}
        for s in labels:
            front = f * lam[s] - lam[s] * spec.phi(s).apply(f)
            if front.is_zero():
                continue
            for p, v in ts.delta_table.get(s, {}).items():
                _acc(rhs, p, front * v)
        diff = dict(lhs)
        for p, v in rhs.items():
            _acc(diff, p, -v)
        detail = "; ".join(f"theta[{a}]theta[{b}]: {c}" for (a, b), c in diff.items())
        rep.add(f"generator.{g.name}", not diff, detail)
    return rep


def verify_twisted_two_forms(spec: CalculusSpec, candidate: TwoFormStructure) -> Report:
    """Validate a user-supplied 2-form structure for a twisted calculus."""
    rep = Report("twisted 2-form structure")
    rep.merge(_master_identity_report(spec, candidate))
    # zeta coefficient condition: f zeta_{s,s'} = phi_s phi_s'(f) zeta_{s,s'}
    for (s, u), z in candidate.zeta.items():
        for g in spec.pres.generators:
            f = spec.pres.gen(g.name)
            res = f * z - spec.phi(s).apply(spec.phi(u).apply(f)) * z
            rep.add(f"zeta_centrality.{s}{u}.{g.name}", res.is_zero(), res)
    # zeta must agree with its twisted expansion
    zeta = {}
    lam = {s: spec.lambda_of(s) for s in spec.directions.labels}
    for s in spec.directions.labels:
        for u in spec.directions.labels:
            coeff = lam[s] * spec.phi(s).apply(lam[u])
            for rp, rc in candidate.reduce_word((s, u)).items():
                _acc(zeta, rp, coeff * rc)
        for p, v in candidate.delta_table.get(s, {}).items():
            _acc(zeta, p, -(lam[s] * v))
    diff = dict(zeta)
    for p, v in candidate.zeta.items():
        _acc(diff, p, -v)
    rep.add("zeta_expansion", not diff,
            "; ".join(f"theta[{a}]theta[{b}]: {c}" for (a, b), c in diff.items()))
    return rep


# ---------------------------------------------------------------------------
# the operations of the calculus


def e_s(spec: CalculusSpec, s, f: NCPoly) -> NCPoly:
    return spec.e(s, f)


def differential(spec: CalculusSpec, f) -> GradedForm:
    """d f = sum_s e_s(f) theta^s, with coefficients on the left."""
    if isinstance(f, (int, Scalar)):
        f = spec.pres.const(f)
    return GradedForm._build(spec, {(s,): spec.e(s, f) for s in spec.directions.labels})


def move_left(spec: CalculusSpec, f: NCPoly, word) -> GradedForm:
    """theta-word times f, rewritten with the coefficient on the left."""
    word = tuple(word)
    return GradedForm._build(spec, {word: spec.phi_word(word, f)})


def move_right(spec: CalculusSpec, word, f: NCPoly) -> NCPoly:
    """Coefficient obtained when f theta^w is written as theta^w * c."""
    return spec.phi_word_inv(word, f)


def vartheta(spec: CalculusSpec) -> GradedForm:
    """The 1-form making d inner; checked against d on every generator."""
    cached = getattr(spec, "_vartheta", None)
    if cached is not None:
        return cached
    th = GradedForm._build(spec, {(s,): spec.lambda_of(s) for s in spec.directions.labels})
    for g in spec.pres.generators:
        f = spec.pres.gen(g.name)
        if th * f - f * th != differential(spec, f):
            raise InconsistentCalculus(
                f"[vartheta, {g.name}] does not reproduce d {g.name}")
    spec._vartheta = th
    return th


def wedge(spec: CalculusSpec, a: GradedForm, b: GradedForm) -> GradedForm:
    return a.wedge(b)


def delta(spec: CalculusSpec, omega: GradedForm) -> GradedForm:
    """Graded derivation with Delta(f) = 0 and Delta(theta^s) from the table."""
    ts = spec.two_forms
    if ts is None:
        raise CalculusError("delta needs a two-form structure on the spec")
    out = GradedForm.zero(spec)
    for w, c in omega.comps.items():
        for i, s in enumerate(w):
            part = GradedForm._build(spec, {w[:i]: spec.pres.one}) \
                .wedge(ts.delta_theta(s)) \
                .wedge(GradedForm._build(spec, {w[i + 1:]: spec.pres.one}))
            out = out + (c * Scalar.from_int((-1) ** i)) * part
    return out


def graded_commutator(spec: CalculusSpec, a: GradedForm, b: GradedForm) -> GradedForm:
    """[a, b] = a b - (-1)^{ra rb} b a, per homogeneous components."""
    out = GradedForm.zero(spec)
    for ra in a.degrees():
        for rb in b.degrees():
            pa, pb = a.degree_part(ra), b.degree_part(rb)
            out = out + pa.wedge(pb) - Scalar.from_int((-1) ** (ra * rb)) * pb.wedge(pa)
    return out


def d_form(spec: CalculusSpec, omega: GradedForm) -> GradedForm:
    """d omega = [vartheta, omega] - Delta(omega)."""
    th = vartheta(spec)
    out = GradedForm.zero(spec)
    for r in omega.degrees():
        part = omega.degree_part(r)
        out = out + th.wedge(part) - Scalar.from_int((-1) ** r) * part.wedge(th)
    return out - delta(spec, omega)


def verify_inner_identities(spec: CalculusSpec) -> Report:
    """The structural identities of an inner calculus, on generators and thetas."""
    rep = Report("inner identities")
    ts = spec.two_forms
    if ts is None:
        raise CalculusError("verify_inner_identities needs a two-form structure")
    th = vartheta(spec)
    zeta = d_form(spec, th) - th.wedge(th)
    rep.add("zeta_matches_table", zeta == ts.zeta_form(),
            f"d(vartheta) - vartheta^2 = {zeta}")
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
    rep.add("delta_zeta", delta(spec, zeta).is_zero(), delta(spec, zeta))
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
    from .linalg import nullspace_vector

    witnesses = {}
    words = normal_words(spec.pres, degree_bound)
    for s in spec.directions.labels:
        col = {w: j for j, w in enumerate(words)}
        rows = {}
        for w in words:
            wp = spec.pres.poly({w: Scalar.one()})
            for g in spec.pres.generators:
                f = spec.pres.gen(g.name)
                res = wp * spec.phi(s).apply(f) - f * wp
                for rw, rc in res.terms.items():
                    _acc(rows.setdefault((g.name, rw), {}), col[w], rc)
        vec = nullspace_vector(list(rows.values()), len(words))
        if vec is not None:
            a = spec.pres.zero
            for w, j in col.items():
                if not vec[j].is_zero():
                    a = a + spec.pres.poly({w: vec[j]})
            witnesses[s] = a
    return witnesses


def constants(spec: CalculusSpec, candidates) -> list:
    """Elements with d c = 0, by the mode criterion and by expansion."""
    out = []
    for c in candidates:
        p = spec.pres.parse(c) if isinstance(c, str) else c
        crit = all((p * spec.lambda_of(s)
                    - spec.lambda_of(s) * spec.phi(s).apply(p)).is_zero()
                   for s in spec.directions.labels)
        expanded = differential(spec, p).is_zero()
        if crit != expanded:
            raise InconsistentCalculus(
                f"constant criterion and d disagree on {p}")
        if crit:
            out.append(p)
    return out


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
        elif isinstance(img, (int, Scalar)):
            img = GradedForm.theta(spec, s) * img
        elif isinstance(img, NCPoly):
            img = GradedForm.theta(spec, s).mul_left(img)
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
        phi_th = phi_th + phi.apply(spec.lambda_of(s)) * images[s]
    corr = phi_th - th
    if simple:
        rep.add("phi_vartheta_fixed", corr.is_zero(), f"phi(vartheta) - vartheta = {corr}")
    elif corr.is_zero():
        rep.add("phi_vartheta_fixed", True)
    else:
        central, witness = is_central_one_form(spec, corr)
        rep.add("phi_vartheta_central_correction", central,
                f"vartheta_phi = {corr}, witness {witness}")
    return rep


class ThetaSolution(NamedTuple):
    ok: bool
    coefficients: dict | None  # label -> list[NCPoly] aligned with coords
    det: NCPoly | None
    matrix: tuple


def solve_theta_in_differentials(spec: CalculusSpec, coords) -> ThetaSolution:
    """Invert the matrix e_s(coord_j) to express theta^s via differentials.

    Uses the adjugate over commutative algebras (the determinant must be a
    unit) and unit-pivot Gaussian elimination otherwise; on failure the
    assembled matrix is returned.
    """
    from .linalg import commutative_inverse, nc_left_inverse

    labels = spec.directions.labels
    coords = [spec.pres.parse(c) if isinstance(c, str) else c for c in coords]
    if len(coords) != len(labels):
        raise CalculusError("need exactly one coordinate per direction")
    M = [[spec.e(s, f) for s in labels] for f in coords]
    det = None
    if spec.pres.is_commutative():
        inv, det = commutative_inverse(spec.pres, M)
    else:
        inv, _ = nc_left_inverse(spec.pres, M)
    if inv is None:
        return ThetaSolution(False, None, det, tuple(tuple(r) for r in M))
    # validate: inv * M = identity
    n = len(labels)
    for i in range(n):
        for j in range(n):
            acc = spec.pres.zero
            for k in range(n):
                acc = acc + inv[i][k] * M[k][j]
            expect = spec.pres.one if i == j else spec.pres.zero
            if acc != expect:
                return ThetaSolution(False, None, det, tuple(tuple(r) for r in M))
    coeffs = {s: [inv[i][j] for j in range(n)] for i, s in enumerate(labels)}
    return ThetaSolution(True, coeffs, det, tuple(tuple(r) for r in M))


def theta_solution_form(spec, sol: ThetaSolution, coords, s) -> GradedForm:
    """The 1-form sum_j c_j d(coord_j) for direction s."""
    coords = [spec.pres.parse(c) if isinstance(c, str) else c for c in coords]
    out = GradedForm.zero(spec)
    for c, f in zip(sol.coefficients[s], coords):
        out = out + c * differential(spec, f)
    return out


# ---------------------------------------------------------------------------
# form parsing


class _FormCtx:
    def __init__(self, spec):
        self.spec = spec

    def number(self, n):
        return GradedForm.from_poly(self.spec, self.spec.pres.const(n))

    def name(self, name):
        pres = self.spec.pres
        if name in pres.params:
            return GradedForm.from_poly(self.spec, pres.const(Scalar.param(name)))
        return GradedForm.from_poly(self.spec, pres.gen(name))

    def indexed(self, name, label):
        if name != "theta":
            raise ParseError(f"unknown indexed symbol {name!r}")
        return GradedForm.theta(self.spec, label)

    def call(self, name, arg):
        if name != "d":
            raise ParseError(f"unknown function {name!r}")
        if set(arg.degrees()) - {0}:
            raise ParseError("d(...) takes an algebra element")
        if arg.is_zero():
            return GradedForm.zero(self.spec)
        return differential(self.spec, arg.component(0)[()])

    def divide(self, a, b):
        if set(b.degrees()) - {0}:
            raise ParseError("cannot divide by a form of positive degree")
        p = b.component(0).get((), self.spec.pres.zero)
        from .algebra import unit_inverse
        if p.is_scalar():
            return a * p.as_scalar().inverse()
        return a * unit_inverse(p)

    def pow(self, v, n):
        if set(v.degrees()) - {0}:
            if n < 1:
                raise ParseError("form powers must be positive")
            return v ** n
        p = v.component(0).get((), self.spec.pres.zero)
        if n < 0:
            from .algebra import unit_inverse
            if p.is_scalar():
                return GradedForm.from_poly(self.spec, self.spec.pres.const(
                    p.as_scalar() ** n))
            return GradedForm.from_poly(self.spec, unit_inverse(p) ** (-n))
        return GradedForm.from_poly(self.spec, p ** n)


def parse_form(spec: CalculusSpec, text: str) -> GradedForm:
    return parse_with_context(text, _FormCtx(spec))
