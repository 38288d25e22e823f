"""Check reports with text and machine-readable rendering."""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    path: str
    ok: bool
    parts: tuple = ()

    @property
    def detail(self):
        """The detail text: str of each part, joined.  Formatted when read."""
        return "".join(map(str, self.parts))


class Report:
    def __init__(self, title=""):
        self.title = title
        self.checks = []

    def add(self, path, ok, *detail):
        """Record a check.  Only a failing check prints its detail, so only a
        failing check keeps the detail parts; they are formatted when read."""
        self.checks.append(Check(path, bool(ok), () if ok else detail))
        return self

    def merge(self, other, prefix=""):
        for c in other.checks:
            path = f"{prefix}.{c.path}" if prefix else c.path
            self.checks.append(Check(path, c.ok, c.parts))
        return self

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def text(self):
        lines = []
        if self.title:
            lines.append(self.title)
        for c in self.checks:
            mark = "pass" if c.ok else "FAIL"
            line = f"  [{mark}] {c.path}"
            detail = c.detail
            if detail and not c.ok:
                line += f": {detail}"
            lines.append(line)
        lines.append(f"  => {'OK' if self.ok else 'FAILED'} "
                     f"({sum(c.ok for c in self.checks)}/{len(self.checks)})")
        return "\n".join(lines)

    def structured(self, prefix=""):
        """Stable key/value lines suitable for diff-based golden tests."""
        base = prefix or (self.title.replace(" ", "_") if self.title else "report")
        lines = []
        # an explicit key: comparing the parts themselves could reach an NCPoly
        for path, ok, detail in sorted((c.path, c.ok, c.detail) for c in self.checks):
            lines.append(f"{base}.{path} = {'pass' if ok else 'fail'}")
            if detail and not ok:
                lines.append(f"{base}.{path}.detail = {detail}")
        lines.append(f"{base}.ok = {'pass' if self.ok else 'fail'}")
        return "\n".join(lines)

    def __str__(self):
        return self.text()
