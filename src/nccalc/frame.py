"""Module frames with matrix-valued commutation rules.

Some calculi are presented in a 1-form basis where moving an algebra
element across the basis mixes components: theta~^i f = sum_j Phi(f)^i_j
theta~^j with a matrix Phi(f) over the algebra.  A ThetaFrame stores the
matrices on generators (Phi extends multiplicatively, and by matrix
inversion to inverse letters), a table of d on generators, and checks at
construction that both respect the algebra's defining relations.
"""

from __future__ import annotations

from typing import Mapping

from .algebra import AlgebraMorphism, LabelModule, NCPoly, _acc
from .report import Report


class FrameError(ValueError):
    pass


class FrameForm(LabelModule):
    """1-form in frame coordinates: frame label -> left coefficient.

    spec is the ThetaFrame the labels belong to.
    """

    __slots__ = ()

    def mul_right(self, p: NCPoly):
        comps = {}
        for w, c in p.terms.items():
            for k, v in self.spec.move_word(self, w).comps.items():
                _acc(comps, k, v * c)
        return FrameForm(self.spec, comps)

    def _word_str(self, k):
        return f"*{k}"


class ThetaFrame:
    """Frame basis with matrix commutation and a d-table on generators."""

    def __init__(self, pres, labels, comm: Mapping, d_images: Mapping):
        self.pres = pres
        self.labels = tuple(labels)
        self.comm = {}
        for gname, mat in comm.items():
            m = {}
            for (i, j), v in mat.items():
                v = pres.element(v)
                if not v.is_zero():
                    m[(i, j)] = v
            self.comm[gname] = m
        self.d_images = {gname: self.form(f) for gname, f in d_images.items()}
        self._inv_comm = {}
        for g in pres.generators:
            if g.name not in self.comm:
                raise FrameError(f"no commutation matrix for generator {g.name}")
            if g.invertible:
                self._inv_comm[g.name] = self._invert_matrix(self.comm[g.name])
        rep = self.verify()
        if not rep.ok:
            raise FrameError("frame tables violate the relations:\n" + rep.text())

    # -- matrix machinery

    def _invert_matrix(self, mat):
        from .linalg import nc_left_inverse

        n = len(self.labels)
        M = [[mat.get((self.labels[i], self.labels[j]), self.pres.zero)
              for j in range(n)] for i in range(n)]
        inv = nc_left_inverse(self.pres, M)
        if inv is None:
            raise FrameError("commutation matrix of an invertible generator "
                             "is not invertible by unit pivots")
        return {(self.labels[i], self.labels[j]): inv[i][j]
                for i in range(n) for j in range(n)
                if not inv[i][j].is_zero()}

    def move_word(self, form: FrameForm, word) -> FrameForm:
        """theta-row vector times a word: row <- row * Phi(letter) ..."""
        row = dict(form.comps)
        for l in word:
            name = self.pres.generators[l >> 1].name
            mat = self._inv_comm[name] if l & 1 else self.comm[name]
            new = {}
            for i, c in row.items():
                for (mi, mj), v in mat.items():
                    if mi == i:
                        _acc(new, mj, c * v)
            row = new
        return FrameForm(self, row)

    # -- basic forms

    def theta(self, label) -> FrameForm:
        if label not in self.labels:
            raise FrameError(f"unknown frame label {label}")
        return FrameForm(self, {label: self.pres.one})

    def form(self, comps) -> FrameForm:
        return FrameForm(self, {k: self.pres.element(v) for k, v in comps.items()})

    def d_word(self, word) -> FrameForm:
        """The derivation applied to one (possibly un-normalized) word."""
        out = FrameForm(self, {})
        for k, l in enumerate(word):
            name = self.pres.generators[l >> 1].name
            if l & 1:
                ginv = self.pres.gen(name, -1)
                dpart = (-self.d_images[name].mul_left(ginv)).mul_right(ginv)
            else:
                dpart = self.d_images[name]
            prefix = self.pres.poly({word[:k]: 1})
            suffix = self.pres.poly({word[k + 1:]: 1})
            out = out + dpart.mul_left(prefix).mul_right(suffix)
        return out

    def d_poly(self, p: NCPoly) -> FrameForm:
        """Extend the d-table as a derivation (letterwise on words)."""
        out = FrameForm(self, {})
        for w, c in p.terms.items():
            out = out + self.d_word(w).mul_left(self.pres.const(c))
        return out

    def commutator(self, form: FrameForm, p: NCPoly) -> FrameForm:
        return form.mul_right(p) - form.mul_left(p)

    # -- construction checks

    def verify(self) -> Report:
        """Phi and d must be well-defined on the quotient by the relations."""
        rep = Report("frame consistency")
        for rule in self.pres.rules:
            lhs_word = rule.lhs
            for i in self.labels:
                lhs = self.move_word(self.theta(i), lhs_word)
                rhs = FrameForm(self, {})
                for w, c in rule.rhs:
                    moved = self.move_word(self.theta(i), w)
                    rhs = rhs + FrameForm(self, {k: v * c for k, v in moved.comps.items()})
                rep.add(f"phi.{self.pres.word_str(lhs_word)}.{i}", lhs == rhs,
                        lhs, " != ", rhs)
            # apply the derivation to the raw rule sides: normalizing first
            # would compare d of the same element with itself
            dl = self.d_word(lhs_word)
            dr = FrameForm(self, {})
            for w, c in rule.rhs:
                dr = dr + self.d_word(w).mul_left(self.pres.const(c))
            rep.add(f"d.{self.pres.word_str(lhs_word)}", dl == dr, dl, " != ", dr)
        return rep

    def apply_morphism(self, phi: AlgebraMorphism, theta_images: Mapping) -> callable:
        """phi extended to frame forms with the given theta images."""
        images = {k: (v if isinstance(v, FrameForm) else self.form(v))
                  for k, v in theta_images.items()}

        def ext(form: FrameForm) -> FrameForm:
            out = FrameForm(self, {})
            for k, c in form.comps.items():
                out = out + images[k].mul_left(phi.apply(c))
            return out

        return ext

    def check_morphism_preserves_frame(self, phi: AlgebraMorphism,
                                       theta_images: Mapping) -> Report:
        """phi(theta~^i) phi(g) must equal phi applied to the i-row of Phi(g)."""
        ext = self.apply_morphism(phi, theta_images)
        rep = Report("frame differentiability")
        for i in self.labels:
            image = ext(self.theta(i))
            for g in self.pres.generators:
                f = self.pres.gen(g.name)
                lhs = image.mul_right(phi.apply(f))
                rhs = ext(self.move_word(self.theta(i), next(iter(f.terms))))
                rep.add(f"{i}.{g.name}", lhs == rhs, lhs, " != ", rhs)
        return rep
