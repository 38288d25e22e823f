"""Command-line front end.

Exit codes: 0 all checks pass, 1 check failure, 2 input error,
3 internal inconsistency (non-confluent rules, broken derived structure).
"""

from __future__ import annotations

import argparse
import sys

from . import _lazy_attributes
from .algebra import AlgebraError
from .calculus import (CalculusError, GradedForm, InconsistentCalculus,
                       d_form, differential, move_left, parse_form,
                       solve_theta_in_differentials)
from .parsing import FileFormatError, ParseError
from .presets import PRESET_IDS, PresetError, load_preset
from .report import Report
from .scalar import ScalarError

# The geometry and file layers are imported by the commands that use them,
# so a light call never compiles them; their names still resolve here.
__getattr__ = _lazy_attributes(__name__, {
    "files": ("load_calculus", "load_connection", "load_metric", "serialize_calculus"),
    "geometry": ("curvature", "levi_civita_check", "metric_compatibility",
                 "metric_invariance_conditions", "torsion", "torsion_free_conditions"),
})

# verify --suite name -> runner(suites module, spec, samples); only verify imports suites
SUITES = {
    "inner": lambda m, spec, n: m.suite_inner(spec),
    "leibniz": lambda m, spec, n: m.suite_leibniz(spec, samples=n),
    "d2": lambda m, spec, n: m.suite_d2(spec, samples=n),
    "differentiability": lambda m, spec, n: m.suite_differentiability(spec),
    "twisted-2forms": lambda m, spec, n: m.suite_twisted_two_forms(spec),
    "graded-leibniz": lambda m, spec, n: m.suite_graded_leibniz(spec, samples=max(5, n // 4)),
    "properties": lambda m, spec, n: m.property_suite(spec, samples=n),
}

EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


def arg(*flags, **options):
    """One argument of a command: the flags and keywords of `add_argument`."""
    return flags, options


def count(text):
    """The type of a count option: an int of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


GLOBAL_ARGS = (
    arg("--preset", help="load a catalog preset"),
    arg("--file", help="load a calculus definition file"),
    arg("--format", choices=("text", "structured"), default="text", help="output format"),
    # ignored, every check runs in one thread; scripts and perfbench's cli stream pass it
    arg("--jobs", type=int, default=1, help=argparse.SUPPRESS),
)


COMMANDS = {}


def command(name, *arguments, spec=True, table=COMMANDS):
    """Enter the decorated handler in `table` under `name` with its arguments
    and an empty table of subcommands; its docstring is its help.  It is
    called as handler(ctx, spec, **options) -> ok with the --preset/--file
    calculus, or as handler(ctx, **options) -> ok when `spec` is false."""
    def register(fn):
        fn.arguments, fn.spec, fn.commands = arguments, spec, {}
        table[name] = fn
        return fn
    return register


def _read(path):
    """The UTF-8 text of a --file, --connection or --metric path, without a
    leading byte-order mark."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()  # decodes the whole file at once, so exc.start is a file offset
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text (byte offset {exc.start})") from None
    return text.removeprefix("\ufeff")


def _load_spec(ctx):
    """The calculus of --preset or --file; a preset and its serialized file load alike."""
    preset, path = ctx["preset"], ctx["file"]
    if preset and path:
        _fail(EXIT_INPUT_ERROR, "give either --preset or --file, not both")
    if preset:
        return load_preset(preset).spec
    if path:
        from .files import load_calculus

        return load_calculus(_read(path))  # confluence-gated inside
    _fail(EXIT_INPUT_ERROR, "no calculus loaded; use --preset or --file")


def _emit(ctx, report_or_lines, prefix="result"):
    fmt = ctx["format"]
    if isinstance(report_or_lines, Report):
        print(report_or_lines.structured(prefix) if fmt == "structured"
              else report_or_lines.text())
        return report_or_lines.ok
    for i, line in enumerate(report_or_lines):
        if fmt == "structured" and not (" = " in line or line.startswith(prefix)):
            line = f"{prefix}.{i} = {line}"
        print(line)
    return True


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _run(fn):
    """Call fn() -> ok and exit by the contract: 1 if not ok, 2 input error, 3 internal."""
    try:
        ok = fn()
    except (ParseError, FileFormatError, PresetError, OSError) as exc:
        _fail(EXIT_INPUT_ERROR, exc)
    except (InconsistentCalculus,) as exc:
        _fail(EXIT_INTERNAL, exc)
    except (AlgebraError, CalculusError, ScalarError) as exc:
        _fail(EXIT_INPUT_ERROR, exc)
    if not ok:
        sys.exit(EXIT_CHECK_FAILED)


class _Parser(argparse.ArgumentParser):
    """A usage error is one `error:` line and exit 2; help has a fixed width."""

    def __init__(self, **kw):
        super().__init__(add_help=False, allow_abbrev=False, formatter_class=_formatter, **kw)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message):
        _fail(EXIT_INPUT_ERROR, message)


def _formatter(prog):
    return argparse.HelpFormatter(prog, width=80)


def _parser(prog):
    """The parser of GLOBAL_ARGS and the command table, and the options that take a value."""
    takes_value = set()

    def add(parser, arguments, table):
        for flags, options in arguments:
            action = parser.add_argument(*flags, **options)
            if action.nargs != 0:
                takes_value.update(action.option_strings)
        sub = table and parser.add_subparsers(metavar="COMMAND", required=True)
        for name, cmd in table.items():
            cmd_parser = sub.add_parser(name, help=cmd.__doc__, description=cmd.__doc__)
            cmd_parser.set_defaults(command=cmd)
            add(cmd_parser, cmd.arguments, cmd.commands)

    parser = _Parser(prog=prog, description=main.__doc__)
    add(parser, GLOBAL_ARGS, COMMANDS)
    return parser, takes_value


def _join_values(argv, takes_value):
    """`--opt value` -> `--opt=value` for every option that takes a value, so
    a value that starts with '-' (`d --expr -x`) is read as the value."""
    out, it = [], iter(argv)
    for a in it:
        if a == "--":
            return [*out, a, *it]
        value = next(it, None) if a in takes_value else None
        out.append(a if value is None else f"{a}={value}")
    return out


def main(args=None, prog_name=None):
    """Exact engine for differential calculi on finitely presented algebras."""
    parser, takes_value = _parser(prog_name or "nccalc")
    argv = sys.argv[1:] if args is None else args
    options = vars(parser.parse_args(_join_values(argv, takes_value)))
    cmd = options.pop("command")
    options.pop("jobs")
    ctx = {name: options.pop(name) for name in ("preset", "file", "format")}
    _run(lambda: cmd(ctx, _load_spec(ctx), **options) if cmd.spec else cmd(ctx, **options))


@command("normalize", arg("expr"))
def normalize(ctx, spec, expr):
    """Normal form of an algebra expression."""
    return _emit(ctx, [f"normal_form = {spec.pres.parse(expr)}"])


@command("d", arg("--expr", required=True))
def d(ctx, spec, expr):
    """Differential of an algebra element (or of a form expression)."""
    form = parse_form(spec, expr)
    if set(form.degrees()) <= {0}:
        out = differential(spec, form.component(0).get((), spec.pres.zero))
    else:
        out = d_form(spec, form)
    return _emit(ctx, [f"d = {out}"])


@command("commute", arg("--expr", required=True, help="algebra element to move"),
         arg("--thetas", required=True, help="comma-separated theta labels"))
def commute(ctx, spec, expr, thetas):
    """Move a coefficient to the left through a theta word."""
    word = tuple(s.strip() for s in thetas.split(","))
    out = move_left(spec, spec.pres.parse(expr), word)
    return _emit(ctx, [f"moved = {out}"])


@command("relations")
def relations(ctx, spec):
    """The theta commutation table theta^s f = phi_s(f) theta^s."""
    lines = []
    for s in spec.directions.labels:
        for g in spec.pres.generators:
            img = spec.phi(s).apply(spec.pres.gen(g.name))
            lines.append(f"theta[{s}]*{g.name} = ({img})*theta[{s}]")
    return _emit(ctx, lines)


@command("two-forms")
def two_forms(ctx, spec):
    """Print the 2-form structure (relations, Delta table, zeta, basis)."""
    ts = spec.two_forms
    if ts is None:
        return _emit(ctx, ["two_forms = none (first-order calculus)"])
    return _emit(ctx, ts.describe().splitlines())


@command("verify", arg("--suite", action="append", choices=(*SUITES, "all"), metavar="SUITE",
                       help="suite to run, repeatable: %(choices)s (default all)"),
         arg("--samples", type=count, default=25, help="randomized sample count"),
         arg("--all-presets", action="store_true", help="run over the whole catalog"), spec=False)
def verify(ctx, suite, samples, all_presets):
    """Run verification suites; exit 0 iff everything passes."""
    from . import suites

    names = list(dict.fromkeys(suite or ["all"]))  # a suite named twice runs once
    if "all" in names:
        names = [s for s in SUITES if s != "properties"]

    def one_spec(spec, tag=""):
        rep = Report(f"verify {tag}".strip())
        for name in names:
            part = SUITES[name](suites, spec, samples)
            rep.merge(part, prefix=(f"{tag}.{name}" if tag else name))
        return rep

    if all_presets:
        rep = Report("verify all presets")
        for pid in PRESET_IDS:
            rep.merge(one_spec(load_preset(pid).spec, pid))
        return _emit(ctx, rep, "verify")
    return _emit(ctx, one_spec(_load_spec(ctx)), "verify")


@command("theta-solve", arg("--coords", required=True, help="comma-separated coordinate elements"))
def theta_solve(ctx, spec, coords):
    """Express the theta basis through differentials of the coordinates."""
    exprs = [c.strip() for c in coords.split(",")]
    sol = solve_theta_in_differentials(spec, exprs)
    if not sol.ok:
        lines = ["solve = failed (matrix not invertible)"]
        for i, row in enumerate(sol.matrix):
            lines.append(f"matrix.{i} = " + " | ".join(str(x) for x in row))
        _emit(ctx, lines)
        return False
    lines = []
    if sol.det is not None:
        lines.append(f"det = {sol.det}")
    for s in spec.directions.labels:
        parts = [f"({c})*d({e})" for c, e in zip(sol.coefficients[s], exprs)
                 if not c.is_zero()]
        lines.append(f"theta[{s}] = " + (" + ".join(parts) if parts else "0"))
    return _emit(ctx, lines)


@command("torsion", arg("--connection", required=True))
def torsion_cmd(ctx, spec, connection):
    """Torsion 2-forms of a connection."""
    from .files import load_connection
    from .geometry import torsion

    tor = torsion(spec, load_connection(spec, _read(connection)))
    _emit(ctx, [f"Theta(theta[{s}]) = {t}" for s, t in tor.items()])
    return all(t.is_zero() for t in tor.values())


@command("torsion-conditions")
def torsion_conditions_cmd(ctx, spec):
    """Emit the linear torsion-free conditions on the connection."""
    from .geometry import torsion_free_conditions

    conds = torsion_free_conditions(spec)
    return _emit(ctx, str(conds).splitlines() or ["conditions = none"])


@command("curvature", arg("--connection", required=True), arg("--theta", required=True))
def curvature_cmd(ctx, spec, connection, theta):
    """Curvature R(theta^s) of a connection."""
    from .files import load_connection
    from .geometry import curvature

    conn = load_connection(spec, _read(connection))
    R = curvature(spec, conn, GradedForm.theta(spec, theta))
    return _emit(ctx, [f"R(theta[{theta}]) = {R}"])


@command("metric-check", arg("--metric", required=True), arg("--connection"))
def metric_check(ctx, spec, metric, connection):
    """Metric invariance conditions, plus compatibility if a connection is given."""
    from .files import load_connection, load_metric
    from .geometry import metric_compatibility, metric_invariance_conditions

    g = load_metric(spec, _read(metric))
    rep = Report("metric")
    rep.merge(metric_invariance_conditions(spec, g), "invariance")
    if connection:
        conn = load_connection(spec, _read(connection))
        rep.merge(metric_compatibility(spec, conn, g), "compatibility")
    return _emit(ctx, rep, "metric")


@command("levi-civita", arg("--metric", required=True), arg("--connection", required=True))
def levi_civita(ctx, spec, metric, connection):
    """Torsion-free plus metric-compatible (existence only, never uniqueness)."""
    from .files import load_connection, load_metric
    from .geometry import levi_civita_check

    g = load_metric(spec, _read(metric))
    conn = load_connection(spec, _read(connection))
    return _emit(ctx, levi_civita_check(spec, conn, g), "levi_civita")


@command("preset", spec=False)
def preset(ctx):
    """Catalog of the worked examples."""


@command("list", spec=False, table=preset.commands)
def preset_list(ctx):
    """The catalog preset ids, one a line."""
    for pid in PRESET_IDS:
        print(pid)
    return True


@command("show", arg("preset_id"), arg("--serialize", action="store_true",
                                       help="emit the calculus in the definition-file format"),
         spec=False, table=preset.commands)
def preset_show(ctx, preset_id, serialize):
    """Describe a preset, or print it as a definition file."""
    bundle = load_preset(preset_id)
    if serialize:
        from .files import serialize_calculus

        print(serialize_calculus(bundle.spec))
    else:
        print(bundle.describe())
    return True


@command("run", arg("preset_id"), spec=False, table=preset.commands)
def preset_run(ctx, preset_id):
    """Replay the golden fixtures of a preset."""
    bundle = load_preset(preset_id)
    return _emit(ctx, bundle.run_fixtures(), f"preset.{bundle.id}")


if __name__ == "__main__":
    main()
