"""Finitely presented associative algebras with rewrite-rule normal forms.

A Presentation declares generators (in precedence order), parameters for
the coefficient field, and rewrite rules.  Every rule must be strictly
decreasing in the graded-lexicographic word order, which guarantees that
rewriting terminates; local confluence is checked separately from critical
pairs.  Elements (NCPoly) always keep their words in normal form, so
equality of values is equality of representations.

A word is a tuple of int letters, a word of the free monoid as in Bergman's
diamond lemma: generator i is the letter 2*i and, on an invertible
generator only, its inverse is 2*i + 1, so a letter's inverse is l ^ 1.  A
word never holds a letter next to its inverse: `join` cancels such pairs
where two words meet, which is the implicit rule x x^-1 -> 1.  Rule sides,
NCPoly terms and every memo key use this one format; `word_str` groups
runs of a letter back into powers when a word is printed.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from . import _lazy_attributes
from .parsing import ParseError, parse_with_context
from .scalar import Scalar, scalar

# defined with their only callers: the linear searches and the tensor-plane presets
__getattr__ = _lazy_attributes(__name__, {"linalg": ("normal_words",),
                                          "presets.tensors": ("tensor_product",)})

Word = tuple  # tuple[letter, ...]; letter 2*i is generator i, 2*i + 1 its inverse

_ONE = Scalar.one()  # shared by every memoized irreducible word


class AlgebraError(ValueError):
    pass


class Generator(NamedTuple):
    name: str
    invertible: bool


# ---------------------------------------------------------------------------
# word helpers


def join(u, v):
    """The word u*v: inverse letters cancel where u meets v, in a cascade."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == v[k] ^ 1:
        k += 1
    return u[:len(u) - k] + v[k:] if k else u + v


def word_from_letters(letters):
    """Reduce a raw letter sequence to a word, cancelling inverse pairs."""
    out = []
    for l in letters:
        if out and out[-1] == l ^ 1:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def word_key(word):
    """Graded-lexicographic sort key: length first, then letters."""
    return (len(word), word)


def word_inverse(word):
    return tuple(l ^ 1 for l in reversed(word))


class RewriteRule(NamedTuple):
    lhs: Word
    rhs: tuple  # tuple[(Word, Scalar), ...]


# ---------------------------------------------------------------------------


class Presentation:
    """Generators, parameters and a terminating rewrite system."""

    def __init__(self, generators, params=(), rules=(), invertible=(), name=None):
        gens = []
        for g in generators:
            if isinstance(g, Generator):
                gens.append(g)
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
        self._install_rules(())
        parsed = []
        for lhs, rhs in rules:
            parsed.append(self._build_rule(lhs, rhs))
        self._install_rules(parsed)

    # -- construction helpers

    def _build_rule(self, lhs, rhs):
        # while a presentation's own rules are built none is installed yet,
        # so parse() leaves both sides unreduced
        lhs_terms = self.element(lhs).terms
        if len(lhs_terms) != 1:
            raise AlgebraError(f"rule left-hand side must be a single word: {lhs}")
        (lw, lc), = lhs_terms.items()
        rhs_terms = self.element(rhs).terms
        if not lc.is_one():
            rhs_terms = {w: c / lc for w, c in rhs_terms.items()}
        lk = word_key(lw)
        for w in rhs_terms:
            if word_key(w) >= lk:
                raise AlgebraError(
                    f"rule is not order-decreasing: {self.word_str(lw)} -> {self.word_str(w)}")
        return RewriteRule(lw, tuple(sorted(rhs_terms.items())))

    def _install_rules(self, new_rules):
        self.rules = self.rules + tuple(new_rules)
        index = {}
        for r in self.rules:
            index.setdefault(r.lhs[0], []).append(r)
        self._rule_index = index
        self._nf = Memo(self._reduce_word)  # word -> its normal form, a dict word -> Scalar

    # -- generators / basic elements

    def gen_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError(f"undeclared generator {name!r}") from None

    def letters(self, i):
        """Generator i's letters: 2*i, and 2*i + 1 for its inverse if it has one."""
        return (2 * i, 2 * i + 1) if self.generators[i].invertible else (2 * i,)

    def gen(self, name, power=1):
        i = self.gen_index(name)
        if power < 0 and not self.generators[i].invertible:
            raise AlgebraError(f"generator {name!r} is not invertible")
        return self.poly({(2 * i + (power < 0),) * abs(power): Scalar.one()})

    @property
    def one(self):
        return NCPoly(self, {(): Scalar.one()})

    @property
    def zero(self):
        return NCPoly(self, {})

    def const(self, c):
        c = scalar(c)
        return NCPoly(self, {(): c} if not c.is_zero() else {})

    def element(self, v) -> "NCPoly":
        """The one coercion to an algebra element: text is parsed, an int or a
        Scalar becomes a constant, an NCPoly is returned as it is."""
        if isinstance(v, str):
            return self.parse(v)
        if isinstance(v, NCPoly):
            return v
        return self.const(v)

    def poly(self, terms):
        """Normalize a dict word -> scalar into an NCPoly."""
        acc = {}
        for w, c in terms.items():
            if isinstance(c, int):
                c = scalar(c)
            if c.is_zero():
                continue
            _acc_nf(acc, self._nf[w], c)
        return NCPoly(self, acc)

    # -- parsing and printing

    def parse(self, text) -> "NCPoly":
        try:
            return parse_with_context(text, _AlgebraCtx(self))
        except (AlgebraError, ZeroDivisionError) as exc:
            raise ParseError(str(exc)) from exc

    def word_str(self, word):
        if not word:
            return "1"
        parts = []
        for l, run in groupby(word):
            name = self.generators[l >> 1].name
            e = len(list(run)) * (-1 if l & 1 else 1)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    # -- rewriting

    def _first_redex(self, word):
        index = self._rule_index
        for i, l in enumerate(word):
            for rule in index.get(l, ()):
                L = rule.lhs
                if word[i:i + len(L)] == L:
                    return i, rule
        return None

    def _reduce_word(self, word):
        """Full normal form of a word, as a dict word -> Scalar: the fill of `_nf`.

        A post-order walk over the rewrite DAG from word.  Rewriting always
        takes the leftmost redex; each right-hand term of the rule that fires
        is followed with `_chain` through single-term rules to a part
        (coefficient, end), last term first.  A word is reduced once the
        missing ends are, by accumulating its parts.  The memo holds
        requested words, branch words (where a rule with two or more
        right-hand terms fires) and irreducible words, so shared subterms of
        the rewrite DAG are reduced once.
        """
        nf = self._nf
        pending = {}
        stack = [word]
        while stack:
            w = stack[-1]
            if w in nf:
                stack.pop()
                continue
            parts = pending.get(w)
            if parts is None:
                m = self._first_redex(w)
                if m is None:
                    nf[w] = {w: _ONE}
                    stack.pop()
                    continue
                i, rule = m
                head, tail = w[:i], w[i + len(rule.lhs):]
                parts = pending[w] = []
                for rw, rc in reversed(rule.rhs):
                    k, end = self._chain(join(join(head, rw), tail))
                    if end is not None:
                        parts.append((rc * k, end))
                missing = [e for _, e in parts if e not in nf]
                if missing:
                    stack.extend(missing)
                    continue
            result = {}
            for c, e in parts:
                _acc_nf(result, nf[e], c)
            nf[w] = result
            del pending[w]
            stack.pop()
        return nf[word]

    def _chain(self, word):
        """Follow single-term rewrites from word: (k, end) with nf(word) = k*nf(end).

        end is memoized, a branch word, or None when a rule maps to zero.
        Irreducible words are memoized on the way.
        """
        nf = self._nf
        k = _ONE
        while word not in nf:
            m = self._first_redex(word)
            if m is None:
                nf[word] = {word: _ONE}
                break
            i, rule = m
            if len(rule.rhs) != 1:
                return (k, word) if rule.rhs else (k, None)
            (rw, rc), = rule.rhs
            word = join(join(word[:i], rw), word[i + len(rule.lhs):])
            if not rc.is_one():
                k = k * rc
        return k, word

    # -- misc

    def is_commutative(self):
        for i in range(len(self.generators)):
            for j in range(i + 1, len(self.generators)):
                a = self.poly({(2 * i, 2 * j): Scalar.one()})
                b = self.poly({(2 * j, 2 * i): Scalar.one()})
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


def join_terms(parts):
    """Join printed terms into a sum, writing ' - t' for a term '-t'."""
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _acc_nf(d, nf, c):
    """Add nf * c into d, for a Scalar c and nf a dict of Scalars (a normal
    form) or of NCPolys (the comps of a form)."""
    for w, nc in nf.items():
        # a Scalar 1 needs no product; an NCPoly stays an NCPoly
        _acc(d, w, c if type(nc) is Scalar and nc.is_one() else nc * c)


class Memo(dict):
    """A memo table: memo[key] is fill(key), computed on the first read and kept.

    A hit is a plain dict lookup.  A fill that raises stores nothing.
    """

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _linear_image(pairs, memo):
    """The sum of c * memo[key] over the (key, c) pairs, as a terms dict.

    The image of a map that is linear over the scalars, one basis key at a
    time: memo is a `Memo` of the terms (word -> Scalar or NCPoly) of each
    key's image.
    """
    acc = {}
    for key, c in pairs:
        _acc_nf(acc, memo[key], c)
    return acc


class LabelModule:
    """Sparse left module element: label word -> NCPoly coefficient.

    Forms, tensors of 1-forms and frame forms all store their coefficients
    on the left of a word of basis labels; sums and left multiples keep
    their words, and subclasses differ in how a word is printed
    (`_word_str`).  Elements of different subclasses never compare equal.
    """

    __slots__ = ("spec", "comps")

    def __init__(self, spec, comps):
        self.spec = spec
        self.comps = {w: c for w, c in comps.items() if not c.is_zero()}

    @classmethod
    def zero(cls, spec):
        return cls(spec, {})

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
        return type(self)(self.spec, comps)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)(self.spec, {w: -c for w, c in self.comps.items()})

    def mul_left(self, p):
        return type(self)(self.spec, {w: p * c for w, c in self.comps.items()})

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


class _AlgebraCtx:
    """Parser context whose values are normalized NCPoly elements."""

    def __init__(self, pres):
        self.pres = pres

    def number(self, n):
        return self.pres.const(n)

    def name(self, name):
        if name in self.pres.params:
            return self.pres.const(Scalar.param(name))
        return self.pres.gen(name)

    def pow(self, v, n):
        # a negative power inverts v by unit_inverse, which takes nonzero scalars too
        if n < 0 and v.is_zero():
            raise ParseError("division by zero")
        return v ** n

    def divide(self, a, b):
        return a * self.pow(b, -1)

    def indexed(self, name, label):
        raise ParseError(f"{name}[{label}] is not an algebra element")

    def call(self, name, arg):
        raise ParseError(f"{name}(...) is not an algebra element")


# ---------------------------------------------------------------------------


class NCPoly:
    """Canonical noncommutative polynomial over a Presentation."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        self.pres = pres
        self.terms = terms

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
        # scalars are central, so scaling keeps the other operand's words normal
        if len(self.terms) == 1 and () in self.terms:
            ca = self.terms[()]
            return NCPoly(self.pres, {w: ca * cb for w, cb in other.terms.items()})
        if len(other.terms) == 1 and () in other.terms:
            cb = other.terms[()]
            return NCPoly(self.pres, {w: ca * cb for w, ca in self.terms.items()})
        acc = {}
        nf = self.pres._nf
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                _acc_nf(acc, nf[join(wa, wb)], ca * cb)
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
        return hash((id(self.pres), frozenset(self.terms.items())))

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
        return join_terms(parts)

    def __repr__(self):
        return f"NCPoly({self})"


def unit_inverse(p: NCPoly) -> NCPoly:
    """Inverse of a unit monomial: scalar times a word of invertible generators."""
    if len(p.terms) != 1:
        raise AlgebraError(f"{p} is not a unit monomial")
    (w, c), = p.terms.items()
    if any(not p.pres.generators[l >> 1].invertible for l in w):
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


def check_local_confluence(pres: Presentation) -> ConfluenceReport:
    """Reduce both sides of every critical pair; an overlap of l1 and l2 is
    at most |l1| + |l2| - 1 letters long, so there are finitely many.

    Implicit inverse-cancellation rules x x^-1 -> 1 participate in the
    overlap computation even though `join` cancels inverses structurally.
    """
    rules = [(r.lhs, r.rhs) for r in pres.rules]
    one = Scalar.one()
    for i, g in enumerate(pres.generators):
        if g.invertible:
            rules.append(((2 * i, 2 * i + 1), (((), one),)))
            rules.append(((2 * i + 1, 2 * i), (((), one),)))

    def side(prefix, rhs, suffix):
        return pres.poly({join(join(prefix, rw), suffix): rc for rw, rc in rhs})

    failures = []
    checked = 0
    for r1 in rules:
        for r2 in rules:
            l1, rhs1 = r1
            l2, rhs2 = r2
            # (superword, start of l2 in it); l1 always starts at 0.
            # Proper overlaps: a suffix of l1 equals a prefix of l2 (the full
            # overlap k = |l1| = |l2| catches distinct rules sharing one
            # left-hand side).  Inclusions: l2 occurs strictly inside l1.
            spots = [(l1 + l2[k:], len(l1) - k)
                     for k in range(1, min(len(l1), len(l2)) + (1 if r1 != r2 else 0))
                     if l1[len(l1) - k:] == l2[:k]]
            if len(l2) < len(l1):
                spots += [(l1, i) for i in range(len(l1) - len(l2) + 1)
                          if l1[i:i + len(l2)] == l2]
            for sup, i in spots:
                checked += 1
                a = side((), rhs1, sup[len(l1):])
                b = side(sup[:i], rhs2, sup[i + len(l2):])
                if a != b:
                    failures.append((pres.word_str(word_from_letters(sup)), str(a), str(b)))
    return ConfluenceReport(not failures, checked, tuple(failures))


# ---------------------------------------------------------------------------
# morphisms


class AlgebraMorphism:
    """Algebra map given by generator images, with verified relation preservation."""

    def __init__(self, pres, images, inv_images, verified):
        self.pres = pres
        self.images = images          # gen name -> NCPoly
        self.inv_images = inv_images  # gen name -> NCPoly (image of g^-1)
        self.verified = verified
        self.violations = ()
        self.inverse = None  # set by verify_morphism and identity_morphism
        self._word_images = Memo(self._word_product)  # word -> terms of its image

    def apply(self, p: NCPoly) -> NCPoly:
        if not self.verified:
            raise AlgebraError("morphism is not verified")
        return self._image(p.terms.items())

    def _image(self, pairs) -> NCPoly:
        """The image of the sum of c * word over the (word, c) pairs."""
        return NCPoly(self.pres, _linear_image(pairs, self._word_images))

    def _word_product(self, word):
        out = self.pres.one
        for l in word:
            name = self.pres.generators[l >> 1].name
            out = out * (self.inv_images[name] if l & 1 else self.images[name])
        return out.terms

    def equal_on_generators(self, other):
        return all(self.images[g.name] == other.images[g.name]
                   for g in self.pres.generators)

    def then(self, outer: "AlgebraMorphism") -> "AlgebraMorphism":
        """Composition outer o self; verified morphisms compose verified.
        Only the forward map is built: the composite has no inverse."""
        images = {g: outer.apply(p) for g, p in self.images.items()}
        inv_images = {g: outer.apply(p) for g, p in self.inv_images.items()}
        return AlgebraMorphism(self.pres, images, inv_images, self.verified and outer.verified)

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
    to fix every generator.  A generator missing from either table is fixed.
    """
    fwd = _morphism(pres, images)
    violations = []
    one = Scalar.one()
    for rule in pres.rules:
        residue = fwd._image([(rule.lhs, one), *((w, -c) for w, c in rule.rhs)])
        if not residue.is_zero():
            violations.append((pres.word_str(rule.lhs), residue))
    if inverse_images is not None:
        back = _morphism(pres, inverse_images)
        for g in pres.generators:
            x = pres.gen(g.name)
            if back.apply(fwd.apply(x)) != x or fwd.apply(back.apply(x)) != x:
                violations.append((f"{g.name} (inverse composition)",
                                   fwd.apply(back.apply(x)) - x))
        back.verified = not violations
        back.violations = tuple(violations)
        back.inverse = fwd
        fwd.inverse = back
    fwd.verified = not violations
    fwd.violations = tuple(violations)
    return fwd


def _morphism(pres, images):
    """Morphism from generator images (text or NCPoly), marked verified so it
    can be applied while it is checked; a generator without an image is
    fixed.  The image of g^-1 is the one stated under the key `g^-1`, once
    it is checked to be phi(g)^-1 on both sides, or else phi(g)^-1 found by
    `invert_element`.  An image of an undeclared name is an AlgebraError,
    so a misspelled generator is not fixed in silence."""
    for name in images:
        if name.endswith("^-1"):
            pres.gen(name[:-3], -1)  # an undeclared or non-invertible generator raises
        else:
            pres.gen_index(name)
    imgs = {g.name: pres.element(images[g.name]) if g.name in images else pres.gen(g.name)
            for g in pres.generators}
    inv_imgs = {}
    for g in pres.generators:
        if g.invertible:
            img, stated = imgs[g.name], images.get(f"{g.name}^-1")
            if stated is None:
                inv = invert_element(img)
                if inv is None:
                    raise AlgebraError(f"cannot compute the image of {g.name}^-1 from {img}")
            else:
                inv = pres.element(stated)
                if not ((img * inv).is_one() and (inv * img).is_one()):
                    raise AlgebraError(
                        f"the stated image {inv} of {g.name}^-1 is not the inverse of {img}")
            inv_imgs[g.name] = inv
    return AlgebraMorphism(pres, imgs, inv_imgs, True)


def invert_element(p: NCPoly):
    """Two-sided inverse of p: the inverse of a unit monomial, or else one
    searched for by `linalg.invert_by_search`; None when none is found.
    """
    if p.is_zero():
        return None
    try:
        return unit_inverse(p)
    except AlgebraError:
        pass
    from .linalg import invert_by_search  # here, so a unit monomial never loads linalg

    return invert_by_search(p)
