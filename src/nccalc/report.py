"""Check reports with text and machine-readable rendering."""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    path: str
    ok: bool
    detail: str = ""


class Report:
    def __init__(self, title=""):
        self.title = title
        self.checks = []

    def add(self, path, ok, *detail):
        """Record a check.  Only a failing check prints its detail, so the
        detail parts are formatted (each with str, then joined) only then."""
        self.checks.append(Check(path, bool(ok), "" if ok else "".join(map(str, detail))))
        return self

    def merge(self, other, prefix=""):
        for c in other.checks:
            path = f"{prefix}.{c.path}" if prefix else c.path
            self.checks.append(Check(path, c.ok, c.detail))
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
            if c.detail and not c.ok:
                line += f": {c.detail}"
            lines.append(line)
        lines.append(f"  => {'OK' if self.ok else 'FAILED'} "
                     f"({sum(c.ok for c in self.checks)}/{len(self.checks)})")
        return "\n".join(lines)

    def structured(self, prefix=""):
        """Stable key/value lines suitable for diff-based golden tests."""
        base = prefix or (self.title.replace(" ", "_") if self.title else "report")
        lines = []
        for c in sorted(self.checks):
            lines.append(f"{base}.{c.path} = {'pass' if c.ok else 'fail'}")
            if c.detail and not c.ok:
                lines.append(f"{base}.{c.path}.detail = {c.detail}")
        lines.append(f"{base}.ok = {'pass' if self.ok else 'fail'}")
        return "\n".join(lines)

    def __str__(self):
        return self.text()
