"""Preset bundle plumbing."""

from __future__ import annotations

import functools
from typing import NamedTuple

from ..report import Report


class PresetError(ValueError):
    pass


class Fixture(NamedTuple):
    description: str
    run: callable  # () -> (ok, detail)


def feq(description, lhs_fn, rhs_fn):
    """Fixture comparing two lazily computed values for exact equality."""

    def run():
        lhs, rhs = lhs_fn(), rhs_fn()
        ok = lhs == rhs
        return ok, "" if ok else f"{lhs}  !=  {rhs}"

    return Fixture(description, run)


def fcheck(description, fn):
    """Fixture around a predicate returning bool or (bool, detail)."""

    def run():
        out = fn()
        if isinstance(out, tuple):
            return bool(out[0]), str(out[1])
        return bool(out), ""

    return Fixture(description, run)


class PresetBundle:
    """Calculus spec + fixtures for one worked example.

    The spec is all that any command reads; its name is the preset id.
    The first read of `bundle.fixtures` imports `presets.fixtures` and
    builds the fixtures its FIXTURES entry for the id returns.  Extras keep
    objects that only fixtures and tests look at (a quotient algebra, a
    frame, explicit forms): `extras` is a zero-argument function returning
    them, called on the first read of `bundle.extras`.  Each is kept once
    built; a build that raises is not kept, so the next read raises again.
    """

    def __init__(self, spec, extras=dict):
        self.spec = spec
        self._build_extras = extras

    @functools.cached_property
    def fixtures(self):
        from .fixtures import FIXTURES  # here, so a load never compiles the fixtures

        return tuple(FIXTURES[self.id](self))

    @functools.cached_property
    def extras(self):
        return self._build_extras()

    @property
    def id(self):
        return self.spec.name

    @property
    def presentation(self):
        return self.spec.pres

    @property
    def two_forms_mode(self):
        """first-order (no 2-forms), derived (automorphism mode) or validated."""
        if self.spec.two_forms is None:
            return "first-order"
        return "derived" if self.spec.mode == "automorphism" else "validated"

    def run_fixtures(self) -> Report:
        """Run every fixture, in order, into one report."""
        rep = Report(f"preset {self.id}")
        for i, fx in enumerate(self.fixtures):
            rep.add(f"fixture_{i:02d}.{_slug(fx.description)}", *_run_fixture(fx))
        return rep

    def describe(self):
        lines = [f"preset: {self.id}",
                 f"algebra: {self.presentation!r}",
                 f"two-forms: {self.two_forms_mode}",
                 f"mode: {self.spec.mode}",
                 f"directions: {', '.join(self.spec.directions.labels)}"]
        if self.spec.side_conditions:
            lines.append("side conditions: " + "; ".join(self.spec.side_conditions))
        lines.append("fixtures:")
        for fx in self.fixtures:
            lines.append(f"  - {fx.description}")
        return "\n".join(lines)


def _run_fixture(fx):
    try:
        return fx.run()
    except Exception as exc:  # a crashing fixture is a failing fixture
        return False, f"{type(exc).__name__}: {exc}"


def _slug(text):
    out = "".join(c if c.isalnum() else "_" for c in text.lower())
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_")[:60]
