"""Byte-identity gate: CLI output digests pinned against a reference tree.

Every record is one `nccalc` call through `CliRunner`; its digest covers the
exit code and the combined stdout/stderr bytes.  `tests/golden.json` holds the
reference digests.  After a change that is meant to alter output, rewrite it
with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from click.testing import CliRunner

from nccalc.cli import main
from nccalc.presets import PRESET_IDS, load_preset

GOLDEN = Path(__file__).with_name("golden.json")

# {a}, {b}: the first two generators; {s}, {t}: the first two directions.
ALGEBRA_EXPRS = ("{a}", "{b}*{a}", "{b}*{a} + 2*{a}", "({a} + {b})^3",
                 "{a}^2*{b} - 1/2", "3", "0", "{a} +* {b}", "{a}/0", "zz",
                 "{a}^", "")
FORM_EXPRS = ("{a}*theta[{s}]", "theta[{s}]*{a}", "theta[{s}]*theta[{t}]",
              "theta[zz]")


def _calls():
    """(key, argv) for every record, in a fixed order."""
    for jobs in ("1", "2"):
        for fmt in ("text", "structured"):
            yield (f"verify-all/{fmt}/jobs{jobs}",
                   ["--format", fmt, "--jobs", jobs, "verify", "--all-presets"])
    for pid in PRESET_IDS:
        bundle = load_preset(pid)
        gens = [g.name for g in bundle.presentation.generators]
        labels = bundle.spec.directions.labels
        fill = dict(a=gens[0], b=gens[-1], s=labels[0], t=labels[-1])
        head = ["--preset", pid]
        yield f"{pid}/preset-run", ["preset", "run", pid]
        yield f"{pid}/preset-run/jobs2", ["--jobs", "2", "preset", "run", pid]
        yield f"{pid}/preset-show", ["preset", "show", pid]
        yield f"{pid}/preset-show/serialize", ["preset", "show", pid, "--serialize"]
        for cmd in ("relations", "two-forms", "torsion-conditions"):
            yield f"{pid}/{cmd}", head + [cmd]
        for i, expr in enumerate(ALGEBRA_EXPRS):
            yield f"{pid}/normalize/{i}", head + ["normalize", expr.format(**fill)]
        for i, expr in enumerate(ALGEBRA_EXPRS + FORM_EXPRS):
            for fmt in ("text", "structured"):
                yield (f"{pid}/d/{i}/{fmt}",
                       head + ["--format", fmt, "d", "--expr", expr.format(**fill)])


def _record(runner, argv):
    res = runner.invoke(main, argv)
    return f"exit={res.exit_code}\n{res.output}"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_cli_output_matches_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    runner = CliRunner()
    seen = []
    mismatches = {}
    for key, argv in _calls():
        seen.append(key)
        out = _record(runner, argv)
        if expected.get(key) != _digest(out):
            mismatches[key] = f"--- {key}: nccalc {' '.join(argv)}\n{out}"
    assert seen == list(expected), "record keys differ from tests/golden.json"
    assert not mismatches, (f"{len(mismatches)} records changed: {', '.join(mismatches)}\n"
                            + "\n".join(list(mismatches.values())[:5]))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    runner = CliRunner()
    digests = {key: _digest(_record(runner, argv)) for key, argv in _calls()}
    GOLDEN.write_text(json.dumps(digests, indent=0) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
