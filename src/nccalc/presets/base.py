"""Preset bundle plumbing."""

from __future__ import annotations

from typing import NamedTuple

from ..report import Report


class PresetError(ValueError):
    pass


class Fixture(NamedTuple):
    description: str
    run: callable  # () -> (ok, detail)


def feq(description, lhs_fn, rhs_fn=None):
    """Fixture comparing two lazily computed values for exact equality."""

    def run():
        lhs = lhs_fn()
        rhs = rhs_fn() if rhs_fn is not None else None
        if rhs_fn is None:
            ok = bool(lhs) if not isinstance(lhs, tuple) else bool(lhs[0])
            detail = "" if ok else (lhs[1] if isinstance(lhs, tuple) else "check failed")
            return ok, detail
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
    """Presentation + calculus spec + fixtures for one worked example."""

    def __init__(self, id, presentation, spec=None, two_forms_mode="none",
                 fixtures=(), side_conditions=(), extras=None):
        self.id = id
        self.presentation = presentation
        self.spec = spec
        self.two_forms_mode = two_forms_mode  # derived | validated | first-order | none
        self.fixtures = tuple(fixtures)
        self.side_conditions = tuple(side_conditions)
        self.extras = dict(extras or {})

    def run_fixtures(self, map=map) -> Report:
        """Run every fixture; `map` may be a pool's map, the report is the same."""
        rep = Report(f"preset {self.id}")
        results = map(_run_fixture, self.fixtures)
        for i, (fx, (ok, detail)) in enumerate(zip(self.fixtures, results)):
            rep.add(f"fixture_{i:02d}.{_slug(fx.description)}", ok, detail)
        return rep

    def describe(self):
        lines = [f"preset: {self.id}",
                 f"algebra: {self.presentation!r}",
                 f"two-forms: {self.two_forms_mode}"]
        if self.spec is not None:
            lines.append(f"mode: {self.spec.mode}")
            lines.append(f"directions: {', '.join(self.spec.directions.labels)}")
        if self.side_conditions:
            lines.append("side conditions: " + "; ".join(self.side_conditions))
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
