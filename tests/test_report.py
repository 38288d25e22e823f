"""Check reports: detail text is formatted only when a report is read."""

from nccalc.presets import load_preset
from nccalc.report import Report


class _Counted:
    """A detail part that counts how often it is formatted."""

    def __init__(self, text):
        self.text = text
        self.calls = 0

    def __str__(self):
        self.calls += 1
        return self.text


def _eager(report):
    """The same report with every detail formatted when it was added."""
    out = Report(report.title)
    for c in report.checks:
        out.add(c.path, c.ok, "".join(map(str, c.parts)))
    return out


def test_failing_details_formatted_only_when_read():
    part = _Counted("x + 1")
    rep = Report("demo")
    rep.add("b.fail", False, "residue ", part)
    rep.add("a.pass", True, "never shown ", part)
    assert part.calls == 0
    assert rep.checks[1].parts == ()
    assert rep.text() == ("demo\n  [FAIL] b.fail: residue x + 1\n  [pass] a.pass\n"
                          "  => FAILED (1/2)")
    assert part.calls == 1
    assert rep.structured() == ("demo.a.pass = pass\ndemo.b.fail = fail\n"
                                "demo.b.fail.detail = residue x + 1\ndemo.ok = fail")
    assert rep.failures()[0].detail == "residue x + 1"


def test_lazy_details_equal_eager_formatting_and_survive_merge():
    pres = load_preset("quantum_plane_a").spec.pres
    x, y = pres.gen("x"), pres.gen("y")
    rep = Report("forms")
    rep.add("same", False, "residue ", x * y, ", rhs ", y * x)
    rep.add("same", False, "residue ", x * y)  # shares the path: sorting must not compare x * y
    rep.add("other", True, "unused ", y)
    rep.add("last", False, x + y, " != ", 0)
    assert rep.text() == _eager(rep).text()
    assert rep.structured() == _eager(rep).structured()
    assert "forms.same.detail = residue x*y, rhs " in rep.structured()

    part = _Counted("p")
    inner = Report("inner").add("bad", False, part)
    outer = Report("outer").merge(rep, "a").merge(inner, "b")
    assert part.calls == 0
    assert [c.parts for c in outer.checks] == [c.parts for c in rep.checks + inner.checks]
    assert outer.text().endswith("  [FAIL] b.bad: p\n  => FAILED (1/5)")
    assert outer.structured(prefix="o") == _eager(outer).structured(prefix="o")
