"""Byte-identity gate: CLI output digests pinned against a reference tree.

Every record is one `nccalc` call through `clirun.run_cli`; its digest covers
the exit code and the combined stdout/stderr bytes.  All calls run in one
temporary working directory holding the connection and metric files of
`_input_files()`, so paths in error messages are relative and stable.
`tests/golden.json` holds the reference digests.  After a change that is meant to alter output, rewrite it
with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from nccalc.cli import COMMANDS
from nccalc.presets import PRESET_IDS, load_preset

from clirun import run_cli

GOLDEN = Path(__file__).with_name("golden.json")

# {a}, {b}: the first and last generator; {s}, {t}: the first and last direction.
ALGEBRA_EXPRS = ("{a}", "{b}*{a}", "{b}*{a} + 2*{a}", "({a} + {b})^3",
                 "{a}^2*{b} - 1/2", "3", "0", "{a} +* {b}", "{a}/0", "zz",
                 "{a}^", "")
FORM_EXPRS = ("{a}*theta[{s}]", "theta[{s}]*{a}", "theta[{s}]*theta[{t}]",
              "theta[zz]")
# per preset connection and metric files, valid and with a malformed line
INPUTS = {"conn": "V[{s},{t},{s}] = {a}\nV[{t},{s},{t}] = 1\n",
          "g": "g[{s},{t}] = 1\ng[{t},{s}] = 1\n",
          "bad_conn": "V[{s},{t}] = 1\n",
          "bad_g": "g[{s}] = {a}\n"}
# command -> (its file options, one of conn/g each), extra arguments
FILE_COMMANDS = {"torsion": ({"--connection": "conn"}, []),
                 "curvature": ({"--connection": "conn"}, ["--theta", "{s}"]),
                 "metric-check": ({"--metric": "g", "--connection": "conn"}, []),
                 "levi-civita": ({"--metric": "g", "--connection": "conn"}, [])}
MISSING, DIRECTORY = "missing.txt", "adir"


def _fill(pid):
    """{a}, {b}, {s}, {t} for one preset, and {coords}: one generator per direction."""
    bundle = load_preset(pid)
    gens = [g.name for g in bundle.presentation.generators]
    labels = bundle.spec.directions.labels
    coords = ",".join(gens[i % len(gens)] for i in range(len(labels)))
    return dict(a=gens[0], b=gens[-1], s=labels[0], t=labels[-1], coords=coords)


def _input_files():
    """File name -> content for every preset's connection and metric inputs."""
    return {f"{pid}.{kind}": text.format(**_fill(pid))
            for pid in PRESET_IDS for kind, text in INPUTS.items()}


def _file_calls(pid, fill):
    """Each file-reading command: valid, then every file option malformed, missing, a directory."""
    head = ["--preset", pid]
    for cmd, (files, extra) in FILE_COMMANDS.items():
        extra = [x.format(**fill) for x in extra]

        def argv(**swap):
            opts = [x for opt, kind in files.items()
                    for x in (opt, swap.get(opt, f"{pid}.{kind}"))]
            return head + [cmd] + opts + extra
        yield f"{pid}/{cmd}", argv()
        for opt, kind in files.items():
            for case, path in (("malformed", f"{pid}.bad_{kind}"), ("missing", MISSING),
                               ("directory", DIRECTORY)):
                yield f"{pid}/{cmd}/{opt.lstrip('-')}-{case}", argv(**{opt: path})


def _calls():
    """(key, argv) for every record, in a fixed order."""
    for jobs in ("1", "2"):
        for fmt in ("text", "structured"):
            yield (f"verify-all/{fmt}/jobs{jobs}",
                   ["--format", fmt, "--jobs", jobs, "verify", "--all-presets"])
    for pid in PRESET_IDS:
        fill = _fill(pid)
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
    # records added after the first 871; the keys above keep their order
    for pid in PRESET_IDS:
        fill = _fill(pid)
        head = ["--preset", pid]
        yield (f"{pid}/commute",
               head + ["commute", "--expr", fill["a"], "--thetas", "{s},{t}".format(**fill)])
        yield f"{pid}/theta-solve", head + ["theta-solve", "--coords", fill["coords"]]
        yield from _file_calls(pid, fill)
    for case, path in (("missing", MISSING), ("directory", DIRECTORY)):
        yield f"file/{case}", ["--file", path, "normalize", "x"]
    yield "help", ["--help"]
    for name, cmd in COMMANDS.items():
        yield f"help/{name}", [name, "--help"]
        for sub in cmd.commands:
            yield f"help/{name}/{sub}", [name, sub, "--help"]
    # structured output of the commands pinned above as text only
    for pid in PRESET_IDS:
        head = ["--preset", pid, "--format", "structured"]
        for cmd in ("relations", "two-forms", "torsion-conditions"):
            yield f"{pid}/{cmd}/structured", head + [cmd]
        yield (f"{pid}/theta-solve/structured",
               head + ["theta-solve", "--coords", _fill(pid)["coords"]])


def _record(argv):
    res = run_cli(argv)
    return f"exit={res.exit_code}\n{res.output}"


def _records():
    """(key, argv, record text) for every call, run inside one temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in _input_files().items():
                Path(name).write_text(text)
            Path(DIRECTORY).mkdir()
            for key, argv in _calls():
                yield key, argv, _record(argv)
        finally:
            os.chdir(cwd)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_cli_output_matches_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    seen = []
    mismatches = {}
    for key, argv, out in _records():
        seen.append(key)
        if expected.get(key) != _digest(out):
            mismatches[key] = f"--- {key}: nccalc {' '.join(argv)}\n{out}"
    assert seen == list(expected), "record keys differ from tests/golden.json"
    assert not mismatches, (f"{len(mismatches)} records changed: {', '.join(mismatches)}\n"
                            + "\n".join(list(mismatches.values())[:5]))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    digests = {key: _digest(out) for key, _, out in _records()}
    GOLDEN.write_text(json.dumps(digests, indent=0) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
