"""Finitely presented associative algebras with rewrite-rule normal forms.

A Presentation declares generators (in precedence order), parameters for
the coefficient field, and rewrite rules.  Every rule must be strictly
decreasing in the graded-lexicographic word order, which guarantees that
rewriting terminates; local confluence is checked separately from critical
pairs.  Elements (NCPoly) always keep their words in normal form, so
equality of values is equality of representations.

Words are run-length encoded: tuples of (generator index, exponent), with
negative exponents only on invertible generators.  Inverse cancellation
x x^-1 -> 1 happens structurally when runs are merged.
"""

from __future__ import annotations

from typing import NamedTuple

from .parsing import ParseError, parse_with_context
from .scalar import Scalar, scalar

Word = tuple  # tuple[(gen_index, exponent), ...]


class AlgebraError(ValueError):
    pass


class Generator(NamedTuple):
    name: str
    invertible: bool


# ---------------------------------------------------------------------------
# word helpers


def word_from_letters(letters):
    """Merge a letter sequence into run-length form, cancelling inverses."""
    runs = []
    for g, s in letters:
        if runs and runs[-1][0] == g:
            runs[-1][1] += s
            if runs[-1][1] == 0:
                runs.pop()
        else:
            runs.append([g, s])
    return tuple((g, e) for g, e in runs)


def letters_of(word):
    out = []
    for g, e in word:
        sign = 1 if e > 0 else -1
        out.extend([(g, sign)] * abs(e))
    return tuple(out)


def word_length(word):
    return sum(abs(e) for _, e in word)


def _letter_key(letter):
    g, s = letter
    return (g, 0 if s > 0 else 1)


def word_key(word):
    ls = letters_of(word)
    return (len(ls), tuple(_letter_key(l) for l in ls))


def word_inverse(word):
    return tuple((g, -e) for g, e in reversed(word))


class RewriteRule(NamedTuple):
    lhs: Word
    lhs_letters: tuple
    rhs: tuple  # tuple[(Word, Scalar), ...]


# ---------------------------------------------------------------------------


class Presentation:
    """Generators, parameters and a terminating rewrite system."""

    def __init__(self, generators, params=(), rules=(), invertible=(), name=None):
        gens = []
        for g in generators:
            if isinstance(g, Generator):
                gens.append(g)
            elif isinstance(g, tuple):
                gens.append(Generator(g[0], bool(g[1])))
            else:
                gens.append(Generator(g, g in invertible))
        self.generators = tuple(gens)
        self.name = name
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate generator names")
        self.params = tuple(params)
        if set(self.params) & set(names):
            raise AlgebraError("parameter names collide with generators")
        for p in self.params:
            Scalar.param(p)  # validates
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        self.rules = ()
        self._rule_index = {}
        self._nf = {}
        parsed = []
        for lhs, rhs in rules:
            parsed.append(self._build_rule(lhs, rhs))
        self._install_rules(parsed)

    # -- construction helpers

    def _build_rule(self, lhs, rhs):
        if isinstance(lhs, str):
            lhs_terms = self.parse_raw(lhs)
        else:
            lhs_terms = {lhs: Scalar.one()}
        if len(lhs_terms) != 1:
            raise AlgebraError(f"rule left-hand side must be a single word: {lhs}")
        (lw, lc), = lhs_terms.items()
        if isinstance(rhs, str):
            rhs_terms = self.parse_raw(rhs)
        elif isinstance(rhs, NCPoly):
            rhs_terms = dict(rhs.terms)
        else:
            rhs_terms = dict(rhs)
        if not lc.is_one():
            rhs_terms = {w: c / lc for w, c in rhs_terms.items()}
        lk = word_key(lw)
        for w in rhs_terms:
            if word_key(w) >= lk:
                raise AlgebraError(
                    f"rule is not order-decreasing: {self.word_str(lw)} -> {self.word_str(w)}")
        return RewriteRule(lw, letters_of(lw), tuple(sorted(rhs_terms.items())))

    def _install_rules(self, new_rules):
        self.rules = self.rules + tuple(new_rules)
        index = {}
        for r in self.rules:
            index.setdefault(r.lhs_letters[0], []).append(r)
        self._rule_index = index
        self._nf = {}

    # -- generators / basic elements

    def gen_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError(f"undeclared generator {name!r}") from None

    def gen(self, name, power=1):
        i = self.gen_index(name)
        if power < 0 and not self.generators[i].invertible:
            raise AlgebraError(f"generator {name!r} is not invertible")
        if power == 0:
            return self.one
        return self.poly({((i, power),): Scalar.one()})

    @property
    def one(self):
        return NCPoly(self, {(): Scalar.one()})

    @property
    def zero(self):
        return NCPoly(self, {})

    def const(self, c):
        c = scalar(c) if not isinstance(c, Scalar) else c
        return NCPoly(self, {(): c} if not c.is_zero() else {})

    def poly(self, terms):
        """Normalize a dict word -> scalar into an NCPoly."""
        acc = {}
        for w, c in terms.items():
            if isinstance(c, int):
                c = scalar(c)
            if c.is_zero():
                continue
            for nw, nc in self._reduce_word(w).items():
                _acc(acc, nw, nc * c)
        return NCPoly(self, acc)

    # -- parsing and printing

    def parse_raw(self, text):
        ctx = _RawCtx(self)
        try:
            return parse_with_context(text, ctx).terms
        except ParseError:
            raise
        except (AlgebraError, ZeroDivisionError) as exc:
            raise ParseError(str(exc)) from exc

    def parse(self, text) -> "NCPoly":
        return self.poly(self.parse_raw(text))

    def word_str(self, word):
        if not word:
            return "1"
        parts = []
        for g, e in word:
            name = self.generators[g].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    # -- rewriting

    def _first_redex(self, letters):
        index = self._rule_index
        n = len(letters)
        for i in range(n):
            cands = index.get(letters[i])
            if not cands:
                continue
            for rule in cands:
                L = rule.lhs_letters
                if letters[i:i + len(L)] == L:
                    return i, rule
        return None

    def _reduce_word(self, word):
        """Full normal form of a word, as a dict word -> Scalar (memoized)."""
        cached = self._nf.get(word)
        if cached is not None:
            return cached
        one = Scalar.one()
        result = {}
        stack = [(word, one)]
        while stack:
            w, coeff = stack.pop()
            hit = self._nf.get(w)
            if hit is not None:
                for nw, nc in hit.items():
                    _acc(result, nw, nc * coeff)
                continue
            letters = letters_of(w)
            m = self._first_redex(letters)
            if m is None:
                self._nf[w] = {w: one}
                _acc(result, w, coeff)
                continue
            i, rule = m
            tail = letters[i + len(rule.lhs_letters):]
            head = letters[:i]
            for rw, rc in rule.rhs:
                nw = word_from_letters(head + letters_of(rw) + tail)
                stack.append((nw, coeff * rc))
        self._nf[word] = result
        return result

    # -- misc

    def is_commutative(self):
        for i in range(len(self.generators)):
            for j in range(i + 1, len(self.generators)):
                a = self.poly({((i, 1), (j, 1)): Scalar.one()})
                b = self.poly({((j, 1), (i, 1)): Scalar.one()})
                if a != b:
                    return False
        return True

    def __repr__(self):
        return f"Presentation({self.name or ','.join(g.name for g in self.generators)})"


def _acc(d, w, c):
    s = d.get(w)
    s = c if s is None else s + c
    if s.is_zero():
        d.pop(w, None)
    else:
        d[w] = s


class LabelModule:
    """Sparse left module element: label word -> NCPoly coefficient.

    Forms, tensors of 1-forms and frame forms all store their coefficients
    on the left of a word of basis labels; subclasses differ only in how
    results are normalized (`_new`) and how a word is printed (`_word_str`).
    Elements of different subclasses never compare equal.
    """

    __slots__ = ("spec", "comps")

    def __init__(self, spec, comps):
        self.spec = spec
        self.comps = {w: c for w, c in comps.items() if not c.is_zero()}

    @classmethod
    def zero(cls, spec):
        return cls(spec, {})

    def _new(self, comps):
        return type(self)(self.spec, comps)

    def _coerce(self, other):
        return other if type(other) is type(self) else None

    def is_zero(self):
        return not self.comps

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        comps = dict(self.comps)
        for w, c in other.comps.items():
            _acc(comps, w, c)
        return self._new(comps)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        # negating a normalized element leaves its words normalized: skip _new
        return type(self)(self.spec, {w: -c for w, c in self.comps.items()})

    def mul_left(self, p):
        return self._new({w: p * c for w, c in self.comps.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.comps == other.comps

    __hash__ = None

    def __str__(self):
        if not self.comps:
            return "0"
        return " + ".join(f"({self.comps[w]}){self._word_str(w)}" for w in sorted(self.comps))

    __repr__ = __str__


class _RawValue:
    """Parser value: un-normalized terms over a presentation."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        self.pres = pres
        self.terms = terms

    def __add__(self, other):
        t = dict(self.terms)
        for w, c in other.terms.items():
            _acc(t, w, c)
        return _RawValue(self.pres, t)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _RawValue(self.pres, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        t = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                _acc(t, word_from_letters(letters_of(wa) + letters_of(wb)), ca * cb)
        return _RawValue(self.pres, t)


class _RawCtx:
    def __init__(self, pres):
        self.pres = pres

    def number(self, n):
        return _RawValue(self.pres, {(): Scalar.from_int(n)})

    def name(self, name):
        if name in self.pres.params:
            return _RawValue(self.pres, {(): Scalar.param(name)})
        i = self.pres.gen_index(name)
        return _RawValue(self.pres, {((i, 1),): Scalar.one()})

    def pow(self, v, n):
        if n == 0:
            return self.number(1)
        if n < 0 and all(c.is_zero() for c in v.terms.values()):
            raise ParseError("division by zero")
        if len(v.terms) == 1:
            (w, c), = v.terms.items()
            if not w:
                return _RawValue(self.pres, {(): c ** n})
            if n < 0:
                if any(not self.pres.generators[g].invertible for g, _ in w):
                    raise ParseError(
                        f"negative power of non-invertible element {self.pres.word_str(w)}")
                w, c = word_inverse(w), c.inverse()
                n = -n
            letters = letters_of(w) * n
            return _RawValue(self.pres, {word_from_letters(letters): c ** n})
        if n < 0:
            raise ParseError("negative power of a non-monomial expression")
        out = v
        for _ in range(n - 1):
            out = out * v
        return out

    def divide(self, a, b):
        inv = self.pow(b, -1)
        return a * inv

    def indexed(self, name, label):
        raise ParseError(f"{name}[{label}] is not an algebra element")

    def call(self, name, arg):
        raise ParseError(f"{name}(...) is not an algebra element")


# ---------------------------------------------------------------------------


class NCPoly:
    """Canonical noncommutative polynomial over a Presentation."""

    __slots__ = ("pres", "terms", "_hash")

    def __init__(self, pres, terms):
        self.pres = pres
        self.terms = terms
        self._hash = None

    # -- queries

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(): Scalar.one()}

    def is_scalar(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def as_scalar(self):
        if not self.terms:
            return Scalar.zero()
        if self.is_scalar():
            return self.terms[()]
        raise AlgebraError(f"{self} is not a scalar")

    def degree(self):
        if not self.terms:
            return 0
        return max(word_length(w) for w in self.terms)

    # -- arithmetic

    def _check(self, other):
        if isinstance(other, (int, Scalar)):
            other = self.pres.const(other)
        if not isinstance(other, NCPoly):
            return None
        if other.pres is not self.pres:
            raise AlgebraError("operands live over different presentations")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        t = dict(self.terms)
        for w, c in other.terms.items():
            _acc(t, w, c)
        return NCPoly(self.pres, t)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly(self.pres, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            c = scalar(other)
            if c.is_zero():
                return self.pres.zero
            return NCPoly(self.pres, {w: k * c for w, k in self.terms.items()})
        other = self._check(other)
        if other is None:
            return NotImplemented
        acc = {}
        reduce = self.pres._reduce_word
        for wa, ca in self.terms.items():
            la = letters_of(wa)
            for wb, cb in other.terms.items():
                w = word_from_letters(la + letters_of(wb))
                c = ca * cb
                for nw, nc in reduce(w).items():
                    _acc(acc, nw, nc * c)
        return NCPoly(self.pres, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self * other
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, n):
        if n < 0:
            return unit_inverse(self) ** (-n)
        out = self.pres.one
        for _ in range(n):
            out = out * self
        return out

    def substitute_params(self, bindings):
        return self.pres.poly({w: c.substitute(bindings) for w, c in self.terms.items()})

    # -- comparisons / printing

    def __eq__(self, other):
        if isinstance(other, (int, Scalar)):
            other = self.pres.const(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.pres is other.pres and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.pres), frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=word_key):
            c = self.terms[w]
            cs = str(c)
            if not w:
                parts.append(cs)
            elif cs == "1":
                parts.append(self.pres.word_str(w))
            elif cs == "-1":
                parts.append(f"-{self.pres.word_str(w)}")
            else:
                if ("+" in cs[1:] or "-" in cs[1:] or "/" in cs) and not (
                        cs.startswith("(") and cs.endswith(")")):
                    cs = f"({cs})"
                parts.append(f"{cs}*{self.pres.word_str(w)}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"NCPoly({self})"


def unit_inverse(p: NCPoly) -> NCPoly:
    """Inverse of a unit monomial: scalar times a word of invertible generators."""
    if len(p.terms) != 1:
        raise AlgebraError(f"{p} is not a unit monomial")
    (w, c), = p.terms.items()
    if any(not p.pres.generators[g].invertible for g, _ in w):
        raise AlgebraError(f"{p} has non-invertible factors")
    return p.pres.poly({word_inverse(w): c.inverse()})


# ---------------------------------------------------------------------------
# local confluence


class ConfluenceReport(NamedTuple):
    ok: bool
    pairs_checked: int
    failures: tuple  # ((word, nf1, nf2), ...)

    def __str__(self):
        if self.ok:
            return f"locally confluent ({self.pairs_checked} critical pairs join)"
        lines = [f"{len(self.failures)} critical pair(s) fail to join:"]
        for w, a, b in self.failures:
            lines.append(f"  {w}: {a}  !=  {b}")
        return "\n".join(lines)


def check_local_confluence(pres: Presentation, max_overlap_len=6) -> ConfluenceReport:
    """Reduce both sides of every critical pair up to the given overlap length.

    Implicit inverse-cancellation rules x x^-1 -> 1 participate in the
    overlap computation even though cancellation happens structurally.
    """
    rules = [(r.lhs_letters, r.rhs) for r in pres.rules]
    one = Scalar.one()
    for i, g in enumerate(pres.generators):
        if g.invertible:
            rules.append((((i, 1), (i, -1)), (((), one),)))
            rules.append((((i, -1), (i, 1)), (((), one),)))

    def reduce_letters(letters, coeff):
        out = pres.zero
        for nw, nc in pres._reduce_word(word_from_letters(letters)).items():
            out = out + NCPoly(pres, {nw: nc * coeff})
        return out

    failures = []
    checked = 0
    for r1 in rules:
        for r2 in rules:
            l1, rhs1 = r1
            l2, rhs2 = r2
            # proper overlap: a suffix of l1 equals a prefix of l2
            # (the full overlap k = |l1| = |l2| catches distinct rules
            # sharing one left-hand side)
            for k in range(1, min(len(l1), len(l2)) + (1 if r1 != r2 else 0)):
                if l1[len(l1) - k:] != l2[:k]:
                    continue
                sup = l1 + l2[k:]
                if len(sup) > max_overlap_len:
                    continue
                checked += 1
                a = pres.zero
                for rw, rc in rhs1:
                    a = a + reduce_letters(letters_of(rw) + sup[len(l1):], rc)
                b = pres.zero
                for rw, rc in rhs2:
                    b = b + reduce_letters(sup[:len(l1) - k] + letters_of(rw), rc)
                if a != b:
                    failures.append((pres.word_str(word_from_letters(sup)), str(a), str(b)))
            # containment: l2 occurs strictly inside l1
            if l1 != l2 and len(l2) < len(l1):
                for i in range(len(l1) - len(l2) + 1):
                    if l1[i:i + len(l2)] != l2:
                        continue
                    if len(l1) > max_overlap_len:
                        continue
                    checked += 1
                    a = pres.zero
                    for rw, rc in rhs1:
                        a = a + reduce_letters(letters_of(rw), rc)
                    b = pres.zero
                    for rw, rc in rhs2:
                        b = b + reduce_letters(l1[:i] + letters_of(rw) + l1[i + len(l2):], rc)
                    if a != b:
                        failures.append((pres.word_str(word_from_letters(l1)), str(a), str(b)))
    return ConfluenceReport(not failures, checked, tuple(failures))


# ---------------------------------------------------------------------------
# morphisms


class AlgebraMorphism:
    """Algebra map given by generator images, with verified relation preservation."""

    def __init__(self, pres, images, inv_images, verified, violations=(), inverse=None):
        self.pres = pres
        self.images = images          # gen name -> NCPoly
        self.inv_images = inv_images  # gen name -> NCPoly (image of g^-1)
        self.verified = verified
        self.violations = tuple(violations)
        self.inverse = inverse

    def apply(self, p: NCPoly) -> NCPoly:
        if not self.verified:
            raise AlgebraError("morphism is not verified")
        pres = self.pres
        out = pres.zero
        cache = {}
        for w, c in p.terms.items():
            img = cache.get(w)
            if img is None:
                img = pres.one
                for g, s in letters_of(w):
                    name = pres.generators[g].name
                    img = img * (self.images[name] if s > 0 else self.inv_images[name])
                cache[w] = img
            out = out + img * c
        return out

    def __call__(self, p):
        return self.apply(p)

    def equal_on_generators(self, other):
        return all(self.images[g.name] == other.images[g.name]
                   for g in self.pres.generators)

    def then(self, outer: "AlgebraMorphism") -> "AlgebraMorphism":
        """Composition outer o self; verified morphisms compose verified."""
        images = {g: outer.apply(p) for g, p in self.images.items()}
        inv_images = {g: outer.apply(p) for g, p in self.inv_images.items()}
        inv = None
        if self.inverse is not None and outer.inverse is not None:
            inv = AlgebraMorphism(self.pres,
                                  {g: self.inverse.apply(p) for g, p in outer.inverse.images.items()},
                                  {g: self.inverse.apply(p) for g, p in outer.inverse.inv_images.items()},
                                  self.verified and outer.verified)
        m = AlgebraMorphism(self.pres, images, inv_images,
                            self.verified and outer.verified, inverse=inv)
        if inv is not None:
            inv.inverse = m
        return m

    def __repr__(self):
        ims = ", ".join(f"{g.name}->{self.images.get(g.name)}" for g in self.pres.generators)
        return f"AlgebraMorphism({ims})"


def identity_morphism(pres) -> AlgebraMorphism:
    images = {g.name: pres.gen(g.name) for g in pres.generators}
    inv = {g.name: pres.gen(g.name, -1) for g in pres.generators if g.invertible}
    m = AlgebraMorphism(pres, images, inv, True)
    m.inverse = m
    return m


def verify_morphism(pres, images, inverse_images=None) -> AlgebraMorphism:
    """Check that generator images preserve every defining relation.

    Returns a morphism whose .verified flag reflects the outcome;
    .violations lists (rule, residue) pairs.  When inverse images are
    given, both directions are verified and the compositions are checked
    to fix every generator.
    """
    imgs = _parse_images(pres, images)
    inv_imgs = {g.name: _image_inverse(pres, imgs, g.name)
                for g in pres.generators if g.invertible}

    violations = []
    for rule in pres.rules:
        lhs = _apply_images(pres, imgs, inv_imgs, rule.lhs)
        rhs = pres.zero
        for w, c in rule.rhs:
            rhs = rhs + _apply_images(pres, imgs, inv_imgs, w) * c
        residue = lhs - rhs
        if not residue.is_zero():
            violations.append((pres.word_str(rule.lhs), residue))

    if inverse_images is not None:
        jmgs = _parse_images(pres, inverse_images)
        jnv_imgs = {g.name: _image_inverse(pres, jmgs, g.name)
                    for g in pres.generators if g.invertible}
        back = AlgebraMorphism(pres, jmgs, jnv_imgs, True)
        fwd = AlgebraMorphism(pres, imgs, inv_imgs, True)
        for g in pres.generators:
            x = pres.gen(g.name)
            if back.apply(fwd.apply(x)) != x or fwd.apply(back.apply(x)) != x:
                violations.append((f"{g.name} (inverse composition)",
                                   fwd.apply(back.apply(x)) - x))
        m = AlgebraMorphism(pres, imgs, inv_imgs, not violations, violations, inverse=back)
        back.verified = m.verified
        back.violations = m.violations
        back.inverse = m
        return m
    return AlgebraMorphism(pres, imgs, inv_imgs, not violations, violations)


def _parse_images(pres, images):
    out = {}
    for g in pres.generators:
        try:
            v = images[g.name]
        except KeyError:
            raise AlgebraError(f"image missing for generator {g.name!r}") from None
        out[g.name] = pres.parse(v) if isinstance(v, str) else v
    return out


def _image_inverse(pres, imgs, name):
    """phi(g^-1) = phi(g)^-1, syntactically or via a bounded linear solve."""
    img = imgs[name]
    try:
        return unit_inverse(img)
    except AlgebraError:
        inv = invert_element(img)
        if inv is None:
            raise AlgebraError(f"cannot compute the image of {name}^-1 from {img}")
        return inv


def _apply_images(pres, imgs, inv_imgs, word):
    out = pres.one
    for g, s in letters_of(word):
        name = pres.generators[g].name
        out = out * (imgs[name] if s > 0 else inv_imgs[name])
    return out


def invert_element(p: NCPoly, max_length=4):
    """Two-sided inverse of p, searched over normal words of bounded length.

    Solves p*z = 1 linearly in the span of normal words (in the generators
    occurring in p) up to max_length letters, then checks z*p = 1.
    Returns None when no inverse is found within the bound.
    """
    from .linalg import solve_linear

    if p.is_zero():
        return None
    try:
        return unit_inverse(p)
    except AlgebraError:
        pass
    pres = p.pres
    gens = sorted({g for w in p.terms for g, _ in w})
    cands = normal_words(pres, max_length, gens=gens)
    col = {w: j for j, w in enumerate(cands)}
    rows = {}
    for w in cands:
        prod = p * pres.poly({w: Scalar.one()})
        for rw, rc in prod.terms.items():
            rows.setdefault(rw, {})[col[w]] = rc
    eqs = [(coeffs, Scalar.one() if rw == () else Scalar.zero())
           for rw, coeffs in rows.items()]
    sol = solve_linear(eqs, len(cands))
    if sol is None:
        return None
    z = pres.zero
    for w, j in col.items():
        if not sol[j].is_zero():
            z = z + pres.poly({w: sol[j]})
    if (p * z).is_one() and (z * p).is_one():
        return z
    return None


# ---------------------------------------------------------------------------
# tensor products


def tensor_product(p1: Presentation, p2: Presentation, name=None) -> Presentation:
    """Combined presentation in which the two factors commute elementwise."""
    names1 = {g.name for g in p1.generators}
    gens = list(p1.generators)
    rename = {}
    for g in p2.generators:
        nm = g.name
        while nm in names1 or nm in rename.values():
            nm += "_2"
        rename[g.name] = nm
        gens.append(Generator(nm, g.invertible))
    params = tuple(dict.fromkeys(p1.params + p2.params))
    pres = Presentation(gens, params, name=name)
    off = len(p1.generators)

    def shift_word(w, offset):
        return tuple((g + offset, e) for g, e in w)

    rules = []
    for r in p1.rules:
        rules.append(RewriteRule(r.lhs, r.lhs_letters, r.rhs))
    for r in p2.rules:
        lhs = shift_word(r.lhs, off)
        rules.append(RewriteRule(lhs, letters_of(lhs),
                                 tuple((shift_word(w, off), c) for w, c in r.rhs)))
    one = Scalar.one()
    for j in range(off, len(gens)):
        for i in range(off):
            signs_i = (1, -1) if gens[i].invertible else (1,)
            signs_j = (1, -1) if gens[j].invertible else (1,)
            for sj in signs_j:
                for si in signs_i:
                    lhs = ((j, sj), (i, si))
                    rules.append(RewriteRule(word_from_letters(lhs), lhs,
                                             ((word_from_letters(((i, si), (j, sj))), one),)))
    pres.rules = ()
    pres._install_rules(rules)
    return pres


# ---------------------------------------------------------------------------
# word enumeration and the module-basis probe


def normal_words(pres: Presentation, max_length: int, include_empty=True, gens=None):
    """All rewrite-irreducible words up to the given letter length."""
    out = [()] if include_empty else []
    alphabet = []
    for i, g in enumerate(pres.generators):
        if gens is not None and i not in gens:
            continue
        alphabet.append((i, 1))
        if g.invertible:
            alphabet.append((i, -1))

    def grow(letters):
        if len(letters) == max_length:
            return
        for l in alphabet:
            if letters and letters[-1][0] == l[0] and letters[-1][1] != l[1]:
                continue  # would cancel
            nxt = letters + (l,)
            if pres._first_redex(nxt) is not None:
                continue
            out.append(word_from_letters(nxt))
            grow(nxt)

    grow(())
    return out


class ProbeReport(NamedTuple):
    dependent: bool
    witness: dict | None  # label -> NCPoly
    words_tested: int

    def __str__(self):
        if not self.dependent:
            return f"no dependency found ({self.words_tested} test monomials)"
        parts = ", ".join(f"f[{s}] = {p}" for s, p in self.witness.items())
        return f"dependency found: {parts}"


def basis_independence_probe(pres, derivations, degree_bound) -> ProbeReport:
    """Bounded search for a right-module relation sum_s e_s . f_s = 0.

    derivations maps labels to callables NCPoly -> NCPoly.  The relation
    must hold on all normal monomials up to degree_bound, with the f_s
    ranging over combinations of normal words up to degree_bound.
    """
    from .linalg import nullspace_vector

    labels = list(derivations)
    words = normal_words(pres, degree_bound)
    unknowns = [(s, w) for s in labels for w in words]
    col = {u: j for j, u in enumerate(unknowns)}
    tests = normal_words(pres, degree_bound)
    rows = []
    for m in tests:
        mono = pres.poly({m: Scalar.one()})
        per_result_word = {}
        for s in labels:
            es_m = derivations[s](mono)
            for w in words:
                prod = es_m * pres.poly({w: Scalar.one()})
                for rw, rc in prod.terms.items():
                    _acc(per_result_word.setdefault(rw, {}), col[(s, w)], rc)
        rows.extend(per_result_word.values())
    vec = nullspace_vector(rows, len(unknowns))
    if vec is None:
        return ProbeReport(False, None, len(tests))
    witness = {}
    for (s, w), j in col.items():
        c = vec[j]
        if not c.is_zero():
            witness.setdefault(s, pres.zero)
            witness[s] = witness[s] + pres.poly({w: c})
    for s in labels:
        witness.setdefault(s, pres.zero)
    return ProbeReport(True, witness, len(tests))
