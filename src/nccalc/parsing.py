"""Shared recursive-descent parser for the textual expression syntax.

Grammar (products are explicit, `^` takes an integer literal exponent):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-'* power
    power   := atom ('^' signed-int)?
    atom    := number | name | name '[' label ']' | 'd' '(' expr ')' | '(' expr ')'

The same grammar serves scalars, algebra elements and graded forms; the
caller supplies a context that resolves names and the `d`/`theta` atoms.
"""

from __future__ import annotations

import re

from .scalar import Scalar, ScalarError

# Largest |n| accepted in `a^n`.  Powers expand by repeated products (and
# word powers by repeated letters), so an unbounded exponent exhausts memory
# or time; the presets, tests and benchmark use at most 32.
MAX_EXPONENT = 1000

# Deepest nesting of parentheses accepted.  Each level costs the recursive
# descent a few stack frames, so much deeper text would exhaust the stack.
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\+|-|\*|/|\(|\)|\[|\])|(\S))")


class ParseError(ValueError):
    pass


class FileFormatError(ValueError):
    """A definition, connection or metric file that does not follow its format."""


def tokenize(text):
    """Tokens (kind, value, column); columns are 1-based, "end" is one past the text."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        num, name, sym, bad = m.groups()
        col = m.start(m.lastindex) + 1
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r} at column {col} in {text!r}")
        if num is not None:
            out.append(("num", int(num), col))
        elif name is not None:
            out.append(("name", name, col))
        else:
            out.append((sym, sym, col))
        pos = m.end()
    out.append(("end", None, len(text) + 1))
    return out


def _found(tok):
    kind, val, col = tok
    what = "end of input" if kind == "end" else f"token {str(val)!r}"
    return f"{what} at column {col}"


class _Parser:
    def __init__(self, text, ctx):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.ctx = ctx
        self.depth = 0

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            want = "an integer" if kind == "num" else repr(kind)
            raise ParseError(f"expected {want}, got {_found(t)}")
        return t

    def parse(self):
        v = self.expr()
        if self.peek() != "end":
            raise ParseError(f"trailing input: {_found(self.toks[self.i])}")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()[0]
            w = self.factor()
            if op == "*":
                v = v * w
            else:
                v = self.ctx.divide(v, w)
        return v

    def factor(self):
        # a run of unary minus negates once if it is odd: negation is exact
        neg = False
        while self.peek() == "-":
            self.next()
            neg = not neg
        v = self.power()
        return -v if neg else v

    def power(self):
        v = self.atom()
        if self.peek() == "^":
            self.next()
            col = self.toks[self.i][2]
            sign = 1
            if self.peek() == "-":
                self.next()
                sign = -1
            n = self.expect("num")[1]
            if n > MAX_EXPONENT:
                raise ParseError(f"exponent {sign * n} exceeds {MAX_EXPONENT} in absolute value "
                                 f"at column {col}")
            v = self.ctx.pow(v, sign * n)
        return v

    def atom(self):
        tok = self.next()
        kind, val, _ = tok
        if kind == "num":
            return self.ctx.number(val)
        if kind == "(":
            return self.group(tok)
        if kind == "name":
            if self.peek() == "[":
                self.next()
                label = self.label_body()
                self.expect("]")
                return self.ctx.indexed(val, label)
            if self.peek() == "(":
                return self.ctx.call(val, self.group(self.next()))
            return self.ctx.name(val)
        raise ParseError(f"unexpected {_found(tok)}")

    def group(self, opening):
        """expr ')' after the token '(', nested at most MAX_NESTING deep."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING} "
                             f"at column {opening[2]}")
        v = self.expr()
        self.expect(")")
        self.depth -= 1
        return v

    def label_body(self):
        # a label is the exact source text between the brackets, such as 1, -1 or t12
        start = self.toks[self.i - 1][2]  # the index just past '['
        while self.peek() not in ("]", "end"):
            self.next()
        label = self.text[start:self.toks[self.i][2] - 1]
        if not label:
            raise ParseError("empty index")
        space = re.search(r"\s", label)
        if space:
            raise ParseError(f"whitespace in label {label!r} "
                             f"at column {start + space.start() + 1}")
        return label


class _ScalarCtx:
    def __init__(self, param_names):
        self.param_names = set(param_names)

    def number(self, n):
        return Scalar.from_int(n)

    def name(self, name):
        if name not in self.param_names:
            raise ParseError(f"unknown parameter {name!r}")
        return Scalar.param(name)

    def divide(self, a, b):
        return a / b

    def pow(self, v, n):
        return v ** n

    def indexed(self, name, label):
        raise ParseError(f"{name}[{label}] is not a scalar")

    def call(self, name, arg):
        raise ParseError(f"{name}(...) is not a scalar")


def parse_scalar_expr(text: str, param_names) -> Scalar:
    try:
        return _Parser(text, _ScalarCtx(param_names)).parse()
    except (ZeroDivisionError, ScalarError) as exc:
        raise ParseError(str(exc)) from exc


def parse_with_context(text: str, ctx):
    return _Parser(text, ctx).parse()
