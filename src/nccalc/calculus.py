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

from functools import partial
from typing import Mapping, NamedTuple

from .algebra import (AlgebraMorphism, LabelModule, Memo, NCPoly, _acc, _AlgebraCtx,
                      _linear_image, join_terms, normal_words)
from .parsing import ParseError, parse_with_context
from .report import Report
from .scalar import Scalar, scalar


class CalculusError(ValueError):
    """An invalid calculus; label, when given, is the direction at fault, or
    the entry at fault: the 2-form table entry ("basis",), ("reduce", s, t),
    ("delta", s) or ("zeta",), the 2-form candidate as a whole ("two_forms",),
    the weight ("weights", s), the direction labels ("labels",) or the twist
    elements ("twists",)."""

    def __init__(self, message, label=None):
        super().__init__(message)
        self.label = label


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
        self._position = {s: i for i, s in enumerate(self.labels)}
        if len(self._position) != len(self.labels):
            raise CalculusError("duplicate direction labels")
        self.classified = biangles is not None
        given = set(biangles or ())
        # label order, so everything built from the biangles has a fixed order
        self.biangles = tuple((s, t) for s in self.labels for t in self.labels
                              if (s, t) in given)
        self.triangles = dict(triangles or {})
        self.word(self.triangles.values())  # a triangle's product is a direction
        self.quad_classes = tuple(tuple(c) for c in (quad_classes or ()))
        if self.classified:
            seen = given | set(self.triangles)
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

    def word(self, labels):
        """The labels as a theta word; CalculusError names an unknown or empty label."""
        for s in labels:
            if s not in self._position:
                raise CalculusError(f"unknown direction {s}" if s else "empty direction label")
        return tuple(labels)

    def order_key(self, labels):
        """The order of label tuples (pairs, connection keys): by label position."""
        return tuple(self._position[s] for s in labels)

    def __repr__(self):
        return f"DirectionSet({','.join(self.labels)})"


# ---------------------------------------------------------------------------


def check_theta_scaling(directions: DirectionSet, s, u, c) -> Scalar:
    """c as the factor of phi_s(theta^u); CalculusError for an unknown label or c = 0."""
    directions.word((s, u))
    c = scalar(c)
    if c.is_zero():
        raise CalculusError(f"theta scaling for {s} {u} must be nonzero")
    return c


class CalculusSpec:
    """Algebra + directions + automorphisms + weights or twists.

    The 2-form structure is fixed here: two_forms (a mapping with the
    basis, reduction, delta_table and zeta tables of TwoFormStructure) is
    checked by verify_twisted_two_forms in either mode; without it a
    group-classified automorphism calculus derives two_form_structure(self),
    and any other calculus is first order (two_forms is None).
    """

    def __init__(self, pres, directions: DirectionSet, autos: Mapping[str, AlgebraMorphism],
                 weights=None, lambdas=None, theta_scalings=None,
                 side_conditions=(), name=None, two_forms=None):
        self.pres = pres
        self.directions = directions
        self.autos = dict(autos)
        self.side_conditions = tuple(side_conditions)
        self.name = name
        self._vartheta = None  # vartheta(self), built and checked on first use
        self._torsion_conditions = None  # geometry.torsion_free_conditions(self), on first use
        self._torsion_part = None  # geometry._torsion_part(self), on first use
        labels = directions.labels
        # e and d_form are linear over the scalars: the terms of e_s(w) per
        # direction s and normal word w, and the comps of d(w theta^u) per
        # (theta-word u, normal word w), each computed once
        self._e_images = {s: Memo(partial(self._e_word, s)) for s in labels}
        self._d_images = Memo(partial(_d_image, self))
        directions.word(self.autos)  # CalculusError for a label outside the directions
        for s in labels:
            m = self.autos.get(s)
            if m is None:
                raise CalculusError(f"no automorphism for direction {s}", label=("labels",))
            if not m.verified:
                raise CalculusError(f"automorphism for {s} is not verified: {m.violations}")
            if m.inverse is None:
                raise CalculusError(f"automorphism for {s} has no inverse")
        if lambdas is not None:
            if weights is not None:
                raise CalculusError("give either weights or twist elements, not both",
                                    label=("twists",))
            self.mode = "twisted"
            self.weights = None
            self.lambdas = {s: pres.element(v) for s, v in lambdas.items()}
            directions.word(self.lambdas)
            for s in labels:
                if s not in self.lambdas:
                    raise CalculusError(f"no twist element for direction {s}",
                                        label=("twists",))
        else:
            self.mode = "automorphism"
            weights = dict(weights or {})
            directions.word(weights)
            self.weights = {s: weights.get(s, Scalar.one()) for s in labels}
            for s, t in self.weights.items():
                if not isinstance(t, Scalar):
                    raise CalculusError(f"weight for {s} must be a Scalar")
                if t.is_zero():
                    raise CalculusError(f"weight t_{s} must be nonzero", label=("weights", s))
            self.lambdas = {s: pres.const(t.inverse()) for s, t in self.weights.items()}
        # necessary faithfulness condition: directions must be distinguishable
        for i, s in enumerate(labels):
            for t in labels[i + 1:]:
                same_phi = self.autos[s].equal_on_generators(self.autos[t])
                if self.mode == "automorphism" and same_phi:
                    raise CalculusError(f"automorphisms for {s} and {t} coincide on generators",
                                        label=t)
                if self.mode == "twisted" and same_phi and self.lambdas[s] == self.lambdas[t]:
                    raise CalculusError(f"directions {s} and {t} carry identical twisted data",
                                        label=t)
        self.theta_scalings = {(s, u): check_theta_scaling(directions, s, u, c)
                               for (s, u), c in (theta_scalings or {}).items()}
        ts = None
        if two_forms is not None:
            ts = TwoFormStructure(self, **two_forms)
            rep = verify_twisted_two_forms(self, ts)
            if not rep.ok:
                raise CalculusError("two-form candidate fails verification:\n" + rep.text(),
                                    label=("two_forms",))
        elif self.mode == "automorphism" and directions.classified:
            ts = two_form_structure(self)
        self.two_forms = ts

    # -- basic maps

    def phi(self, s) -> AlgebraMorphism:
        return self.autos[s]

    def phi_inv(self, s) -> AlgebraMorphism:
        return self.autos[s].inverse

    def e(self, s, f: NCPoly) -> NCPoly:
        """e_s f = lambda_s phi_s(f) - f lambda_s, summed over the words of f."""
        return NCPoly(self.pres, _linear_image(f.terms.items(), self._e_images[s]))

    def _e_word(self, s, w):
        lam = self.lambdas[s]
        f = NCPoly(self.pres, {w: Scalar.one()})
        return (lam * self.autos[s].apply(f) - f * lam).terms

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

    def theta_image(self, s, u) -> "GradedForm":
        """phi_s(theta^u) = theta_scale(s, u) theta^t, where t is u if phi_u
        equals phi_s o phi_u o phi_s^-1 on generators, else the first label
        whose automorphism does (u again if none does)."""
        conj = {g: self.phi_word((s, u), p) for g, p in self.autos[s].inverse.images.items()}
        t = next((l for l in (u, *self.directions.labels)
                  if all(self.autos[l].images[g] == p for g, p in conj.items())), u)
        return self.theta_scale(s, u) * GradedForm.theta(self, t)

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
        return GradedForm(spec, {(): spec.pres.element(p)})

    @staticmethod
    def theta(spec, *labels):
        return GradedForm._build(spec, {spec.directions.word(labels): spec.pres.one})

    @staticmethod
    def _build(spec, comps):
        """The form with its theta-words reduced to the basis Xi, if spec has one.

        Called only where a theta-word is formed (theta, wedge, move_left,
        delta, and the geometry tests' projection of 2-tensors onto 2-forms);
        sums and multiples keep their words and use the constructor.
        """
        ts = spec.two_forms
        return GradedForm(spec, comps if ts is None else ts.reduce(comps))

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
            return GradedForm(self.spec, {w: k * other for w, k in self.comps.items()})
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
        return GradedForm(self.spec, {w: c * phi_word(w, p) for w, c in self.comps.items()})

    def wedge(self, other: "GradedForm"):
        other = self._coerce(other)
        phi_word = self.spec.phi_word
        comps = {}
        for w, c in self.comps.items():
            for w2, c2 in other.comps.items():
                _acc(comps, w + w2, c * phi_word(w, c2))
        return GradedForm._build(self.spec, comps)

    def __pow__(self, n):
        if n < 1:
            raise CalculusError("form powers must be positive")
        out = self
        for _ in range(n - 1):
            out = out.wedge(self)
        return out

    def substitute_params(self, bindings):
        return GradedForm(self.spec,
                          {w: c.substitute_params(bindings) for w, c in self.comps.items()})

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
        return join_terms(parts)

    def __repr__(self):
        return f"GradedForm({self})"


# ---------------------------------------------------------------------------
# two-form structure


class TwoFormStructure:
    """Degree-2 relations, the Delta table, zeta, and the word basis Xi."""

    def __init__(self, spec, basis, reduction, delta_table, zeta):
        self.spec = spec
        self.basis = tuple(tuple(p) for p in basis)
        self.reduction = {tuple(k): tuple((c, tuple(p)) for c, p in v)
                          for k, v in reduction.items()}
        element = spec.pres.element
        self.delta_table = {s: {tuple(p): element(v) for p, v in tab.items()}
                            for s, tab in delta_table.items()}
        self.zeta = {tuple(p): element(v) for p, v in zeta.items()}
        self._reduced = Memo(self._reduce_word)  # theta-word -> reduce_word's tuple
        # CalculusError for an unknown label, before any pair is ordered
        pairs = [*self.basis, *self.zeta, *self.reduction, tuple(self.delta_table)]
        pairs += [p for v in self.reduction.values() for _, p in v]
        pairs += [p for tab in self.delta_table.values() for p in tab]
        spec.directions.word(sum(pairs, ()))
        basis_set = set(self.basis)
        pair_key = spec.directions.order_key
        for k, v in self.reduction.items():
            entry = ("reduce", *k)
            if k in basis_set:
                raise CalculusError(f"pair {k} is both in the basis and reduced", entry)
            for c, p in v:
                if p not in basis_set:
                    raise CalculusError(f"reduction of {k} leaves the basis ({p})", entry)
                if pair_key(p) >= pair_key(k):
                    raise CalculusError(f"reduction of {k} must decrease the pair order", entry)
        all_pairs = {(s, t) for s in spec.directions.labels for t in spec.directions.labels}
        if basis_set | set(self.reduction) != all_pairs:
            raise CalculusError("basis plus reduced pairs must cover S x S", ("basis",))
        for s, tab in self.delta_table.items():
            if not basis_set.issuperset(tab):
                raise CalculusError(f"Delta(theta^{s}) must be expressed in the basis",
                                    ("delta", s))
        if not basis_set.issuperset(self.zeta):
            raise CalculusError("zeta must be expressed in the basis", ("zeta",))

    def reduce(self, comps):
        """comps (theta-word -> coefficient) with every word reduced to the basis Xi.

        The one reduction of theta-words; words of degree < 2 pass unchanged.
        """
        out = {}
        for w, c in comps.items():
            if len(w) < 2:
                _acc(out, w, c)
                continue
            for rw, rc in self.reduce_word(w):
                _acc(out, rw, c * rc)
        return out

    def reduce_word(self, word):
        """Reduce adjacent pairs left-to-right to a fixpoint; scalar coeffs.

        Returns the pairs (basis word, coefficient) as a tuple.  The
        structure is not changed after construction, so each word is
        reduced once and the tuple is shared by every caller.
        """
        return self._reduced[tuple(word)]

    def _reduce_word(self, word):
        out = {}
        stack = [(word, Scalar.one())]
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
        return tuple(out.items())

    def delta_theta(self, s) -> GradedForm:
        return GradedForm(self.spec, self.delta_table.get(s, {}))

    def zeta_form(self) -> GradedForm:
        return GradedForm(self.spec, self.zeta)

    def describe(self):
        lines = []
        lines.append("basis: " + ", ".join(f"theta[{a}]*theta[{b}]" for a, b in self.basis))
        for k in sorted(self.reduction):
            form = GradedForm(self.spec, {p: self.spec.pres.const(c) for c, p in self.reduction[k]})
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
    all_pairs = [(s, u) for s in d.labels for u in d.labels]
    reduction = {}
    for cls in d.quad_classes:
        target = max(cls, key=d.order_key)
        scale = -(t[target[0]] * t[target[1]])
        reduction[target] = tuple(
            (scale / (t[s] * t[u]), (s, u)) for (s, u) in cls if (s, u) != target)
    basis = [p for p in all_pairs if p not in reduction]
    delta_table = {}
    for (s, u), target in d.triangles.items():
        delta_table.setdefault(target, {})[(s, u)] = \
            spec.pres.const(t[target] / (t[s] * t[u]))
    zeta = {(s, u): spec.pres.const((t[s] * t[u]).inverse()) for (s, u) in d.biangles}
    ts = TwoFormStructure(spec, basis, reduction, delta_table, zeta)
    rep = _master_identity_report(spec, ts, _twist_table(spec))
    if not rep.ok:
        raise InconsistentCalculus(
            "derived 2-form structure violates the master identity:\n" + rep.text())
    return ts


def _master_identity_report(spec, ts: TwoFormStructure, twist) -> Report:
    """The identity obtained by commuting f through zeta = d(theta) - theta^2.

    sum_{s,s'} ( f L_s phi_s(L_s') - L_s phi_s(L_s') phi_s phi_s'(f) ) th^s th^s'
      = sum_s ( f L_s - L_s phi_s(f) ) Delta(theta^s)
    reduced to the basis Xi, for every generator f; twist is _twist_table(spec).
    """
    rep = Report("master identity")
    lam = spec.lambdas
    for g in spec.pres.generators:
        f = spec.pres.gen(g.name)
        lhs = ts.reduce({pair: f * c - c * spec.phi_word(pair, f) for pair, c in twist.items()})
        rhs = {}
        for s in spec.directions.labels:
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


def _twist_table(spec) -> dict:
    """lambda_s phi_s(lambda_u) for every ordered pair (s, u), in label order."""
    lam = spec.lambdas
    labels = spec.directions.labels
    return {(s, u): lam[s] * spec.phi(s).apply(lam[u]) for s in labels for u in labels}


def verify_twisted_two_forms(spec: CalculusSpec, candidate: TwoFormStructure) -> Report:
    """Validate a user-supplied 2-form structure for a twisted calculus."""
    rep = Report("twisted 2-form structure")
    twist = _twist_table(spec)
    rep.merge(_master_identity_report(spec, candidate, twist))
    # zeta coefficient condition: f zeta_{s,s'} = phi_s phi_s'(f) zeta_{s,s'}
    for (s, u), z in candidate.zeta.items():
        for g in spec.pres.generators:
            f = spec.pres.gen(g.name)
            res = f * z - spec.phi_word((s, u), f) * z
            rep.add(f"zeta_centrality.{s}{u}.{g.name}", res.is_zero(), res)
    # zeta must agree with its twisted expansion
    zeta = {}
    lam = spec.lambdas
    for s in spec.directions.labels:
        for u in spec.directions.labels:
            for p, v in candidate.reduce({(s, u): twist[(s, u)]}).items():
                _acc(zeta, p, v)
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


def differential(spec: CalculusSpec, f) -> GradedForm:
    """d f = sum_s e_s(f) theta^s, with coefficients on the left."""
    f = spec.pres.element(f)
    return GradedForm(spec, {(s,): spec.e(s, f) for s in spec.directions.labels})


def move_left(spec: CalculusSpec, f: NCPoly, word) -> GradedForm:
    """theta-word times f, rewritten with the coefficient on the left."""
    word = spec.directions.word(word)
    return GradedForm._build(spec, {word: spec.phi_word(word, f)})


def move_right(spec: CalculusSpec, word, f: NCPoly) -> NCPoly:
    """Coefficient obtained when f theta^w is written as theta^w * c."""
    return spec.phi_word_inv(spec.directions.word(word), f)


def vartheta(spec: CalculusSpec) -> GradedForm:
    """The 1-form making d inner; checked against d on every generator."""
    if spec._vartheta is not None:
        return spec._vartheta
    th = GradedForm(spec, {(s,): spec.lambdas[s] for s in spec.directions.labels})
    for g in spec.pres.generators:
        f = spec.pres.gen(g.name)
        if th * f - f * th != differential(spec, f):
            raise InconsistentCalculus(
                f"[vartheta, {g.name}] does not reproduce d {g.name}")
    spec._vartheta = th
    return th


def delta(spec: CalculusSpec, omega: GradedForm) -> GradedForm:
    """Graded derivation with Delta(f) = 0 and Delta(theta^s) from the table."""
    ts = spec.two_forms
    if ts is None:
        raise CalculusError("delta needs a two-form structure on the spec")
    comps = {}
    for w, c in omega.comps.items():
        for i, s in enumerate(w):
            # theta^{w<i} Delta(theta^s) theta^{w>i}, signed by the 0-based position i
            ci = -c if i % 2 else c
            for pair, v in ts.delta_table.get(s, {}).items():
                _acc(comps, w[:i] + pair + w[i + 1:], ci * spec.phi_word(w[:i], v))
    return GradedForm._build(spec, comps)


def graded_commutator(spec: CalculusSpec, a: GradedForm, b: GradedForm) -> GradedForm:
    """[a, b] = a b - (-1)^{ra rb} b a, per homogeneous components."""
    out = GradedForm.zero(spec)
    for ra in a.degrees():
        for rb in b.degrees():
            pa, pb = a.degree_part(ra), b.degree_part(rb)
            out = out + pa.wedge(pb) - Scalar.from_int((-1) ** (ra * rb)) * pb.wedge(pa)
    return out


def d_form(spec: CalculusSpec, omega: GradedForm) -> GradedForm:
    """d omega = [vartheta, omega] - Delta(omega), summed over the terms
    k w theta^u of omega (k a scalar, w a word)."""
    vartheta(spec)  # its errors come first
    if spec.two_forms is None:  # the message of delta, which d needs
        raise CalculusError("delta needs a two-form structure on the spec")
    pairs = (((u, w), k) for u, c in omega.comps.items() for w, k in c.terms.items())
    return GradedForm(spec, _linear_image(pairs, spec._d_images))


def _d_image(spec, key):
    """The comps of d(w theta^u) for key = (u, w), the fill of `spec._d_images`."""
    u, w = key
    term = GradedForm(spec, {u: NCPoly(spec.pres, {w: Scalar.one()})})
    return (graded_commutator(spec, vartheta(spec), term) - delta(spec, term)).comps


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
    from .linalg import nullspace_vector, span_rows

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


def constants(spec: CalculusSpec, candidates) -> list:
    """The candidates c with d c = 0, that is c lambda_s = lambda_s phi_s(c) for every s."""
    return [p for p in map(spec.pres.element, candidates) if differential(spec, p).is_zero()]


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


class ThetaSolution(NamedTuple):
    ok: bool
    coefficients: dict | None  # label -> list[NCPoly] aligned with coords
    det: NCPoly | None
    matrix: tuple


def solve_theta_in_differentials(spec: CalculusSpec, coords) -> ThetaSolution:
    """Invert the matrix e_s(coord_j) to express theta^s via differentials.

    Uses the adjugate over commutative algebras (the determinant must be a
    unit) and unit-pivot Gaussian elimination otherwise; on failure the
    assembled matrix is returned.  Each routine certifies the inverse it
    returns, so it is not multiplied out here: adj(M) M = det(M) I for
    commuting entries, and the elimination, which keeps B M = A, returns B
    only once A = I.
    """
    from .linalg import commutative_inverse, nc_left_inverse

    labels = spec.directions.labels
    coords = [spec.pres.element(c) for c in coords]
    if len(coords) != len(labels):
        raise CalculusError("need exactly one coordinate per direction")
    M = [[spec.e(s, f) for s in labels] for f in coords]
    det = None
    if spec.pres.is_commutative():
        inv, det = commutative_inverse(spec.pres, M)
    else:
        inv = nc_left_inverse(spec.pres, M)
    if inv is None:
        return ThetaSolution(False, None, det, tuple(tuple(r) for r in M))
    coeffs = dict(zip(labels, inv))
    return ThetaSolution(True, coeffs, det, tuple(tuple(r) for r in M))


def theta_solution_form(spec, sol: ThetaSolution, coords, s) -> GradedForm:
    """The 1-form sum_j c_j d(coord_j) for direction s."""
    coords = [spec.pres.element(c) for c in coords]
    out = GradedForm.zero(spec)
    for c, f in zip(sol.coefficients[s], coords):
        out = out + c * differential(spec, f)
    return out


# ---------------------------------------------------------------------------
# form parsing


class _FormCtx:
    """Form values; numbers, names and degree-0 powers and quotients are
    algebra elements, read exactly as Presentation.parse reads them."""

    def __init__(self, spec):
        self.spec = spec
        self.alg = _AlgebraCtx(spec.pres)

    def number(self, n):
        return GradedForm.from_poly(self.spec, self.alg.number(n))

    def name(self, name):
        return GradedForm.from_poly(self.spec, self.alg.name(name))

    def indexed(self, name, label):
        if name != "theta":
            raise ParseError(f"unknown indexed symbol {name!r}")
        return GradedForm.theta(self.spec, label)

    def call(self, name, arg):
        if name != "d":
            raise ParseError(f"unknown function {name!r}")
        if set(arg.degrees()) - {0}:
            raise ParseError("d(...) takes an algebra element")
        return differential(self.spec, arg.coefficient(()))

    def divide(self, a, b):
        if set(b.degrees()) - {0}:
            raise ParseError("cannot divide by a form of positive degree")
        return a * self.alg.pow(b.coefficient(()), -1)

    def pow(self, v, n):
        if set(v.degrees()) - {0}:
            if n < 1:
                raise ParseError("form powers must be positive")
            return v ** n
        return GradedForm.from_poly(self.spec, self.alg.pow(v.coefficient(()), n))


def parse_form(spec: CalculusSpec, text: str) -> GradedForm:
    return parse_with_context(text, _FormCtx(spec))
