"""Command-line front end.

Exit codes: 0 all checks pass, 1 check failure, 2 input error,
3 internal inconsistency (non-confluent rules, broken derived structure).
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager

from . import _lazy_attributes
from .algebra import AlgebraError
from .calculus import (CalculusError, GradedForm, InconsistentCalculus,
                       d_form, differential, move_left, parse_form,
                       solve_theta_in_differentials)
from .parsing import FileFormatError, ParseError
from .presets import PRESET_IDS, PresetError, load_preset
from .report import Report
from .scalar import ScalarError

# after the engine: compiling it on top of click's heap raised the peak RSS of a call
import click

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


def _read(path):
    """The text of a --file, --connection or --metric path."""
    with open(path) as fh:
        return fh.read()


def _load_spec(ctx):
    """The calculus of --preset or --file; a preset and its serialized file load alike."""
    preset = ctx.obj.get("preset")
    path = ctx.obj.get("file")
    if preset and path:
        raise click.UsageError("give either --preset or --file, not both")
    if preset:
        return load_preset(preset).spec
    if path:
        from .files import load_calculus

        return load_calculus(_read(path))  # confluence-gated inside
    raise click.UsageError("no calculus loaded; use --preset or --file")


def _emit(ctx, report_or_lines, prefix="result"):
    fmt = ctx.obj.get("format", "text")
    if isinstance(report_or_lines, Report):
        click.echo(report_or_lines.structured(prefix) if fmt == "structured"
                   else report_or_lines.text())
        return report_or_lines.ok
    for i, line in enumerate(report_or_lines):
        if fmt == "structured" and not (" = " in line or line.startswith(prefix)):
            line = f"{prefix}.{i} = {line}"
        click.echo(line)
    return True


@contextmanager
def _jobs_map(ctx):
    """The map for independent checks: builtin at --jobs 1, else a thread pool's."""
    jobs = ctx.obj.get("jobs", 1)
    if jobs == 1:
        yield map
        return
    from concurrent.futures import ThreadPoolExecutor  # loads logging: keep it off cold calls

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield pool.map


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
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


def _with_spec(fn):
    """A command fn(ctx, spec, **options) -> ok on the --preset/--file calculus, run by _run."""
    @click.pass_context
    @functools.wraps(fn)
    def command(ctx, **options):
        _run(lambda: fn(ctx, _load_spec(ctx), **options))
    return command


@click.group()
@click.option("--preset", type=str, default=None, help="load a catalog preset")
@click.option("--file", "file_", type=click.Path(), default=None,
              help="load a calculus definition file")
@click.option("--format", "format_", type=click.Choice(["text", "structured"]),
              default="text", help="output format")
@click.option("--jobs", type=int, default=1, help="parallel independent checks")
@click.pass_context
def main(ctx, preset, file_, format_, jobs):
    """Exact engine for differential calculi on finitely presented algebras."""
    ctx.ensure_object(dict)
    ctx.obj.update(preset=preset, file=file_, format=format_, jobs=max(1, jobs))


@main.command()
@click.argument("expr")
@_with_spec
def normalize(ctx, spec, expr):
    """Normal form of an algebra expression."""
    return _emit(ctx, [f"normal_form = {spec.pres.parse(expr)}"])


@main.command()
@click.option("--expr", required=True)
@_with_spec
def d(ctx, spec, expr):
    """Differential of an algebra element (or of a form expression)."""
    form = parse_form(spec, expr)
    if set(form.degrees()) <= {0}:
        out = differential(spec, form.component(0).get((), spec.pres.zero))
    else:
        out = d_form(spec, form)
    return _emit(ctx, [f"d = {out}"])


@main.command()
@click.option("--expr", required=True, help="algebra element to move")
@click.option("--thetas", required=True, help="comma-separated theta labels")
@_with_spec
def commute(ctx, spec, expr, thetas):
    """Move a coefficient to the left through a theta word."""
    word = tuple(s.strip() for s in thetas.split(","))
    out = move_left(spec, spec.pres.parse(expr), word)
    return _emit(ctx, [f"moved = {out}"])


@main.command()
@_with_spec
def relations(ctx, spec):
    """The theta commutation table theta^s f = phi_s(f) theta^s."""
    lines = []
    for s in spec.directions.labels:
        for g in spec.pres.generators:
            img = spec.phi(s).apply(spec.pres.gen(g.name))
            lines.append(f"theta[{s}]*{g.name} = ({img})*theta[{s}]")
    return _emit(ctx, lines)


@main.command("two-forms")
@_with_spec
def two_forms(ctx, spec):
    """Print the 2-form structure (relations, Delta table, zeta, basis)."""
    ts = spec.two_forms
    if ts is None:
        return _emit(ctx, ["two_forms = none (first-order calculus)"])
    return _emit(ctx, ts.describe().splitlines())


@main.command()
@click.option("--suite", "suite_names", multiple=True,
              type=click.Choice([*SUITES, "all"]), default=("all",))
@click.option("--samples", type=int, default=25, help="randomized sample count")
@click.option("--all-presets", is_flag=True, help="run over the whole catalog")
@click.pass_context
def verify(ctx, suite_names, samples, all_presets):
    """Run verification suites; exit 0 iff everything passes."""
    from . import suites

    names = list(suite_names)
    if "all" in names:
        names = [s for s in SUITES if s != "properties"]

    def one_spec(spec, tag=""):
        rep = Report(f"verify {tag}".strip())
        for name in names:
            part = SUITES[name](suites, spec, samples)
            rep.merge(part, prefix=(f"{tag}.{name}" if tag else name))
        return rep

    def go():
        if all_presets:
            rep = Report("verify all presets")
            with _jobs_map(ctx) as map_:
                for part in map_(lambda pid: one_spec(load_preset(pid).spec, pid), PRESET_IDS):
                    rep.merge(part)
            return _emit(ctx, rep, "verify")
        return _emit(ctx, one_spec(_load_spec(ctx)), "verify")
    _run(go)


@main.command("theta-solve")
@click.option("--coords", required=True, help="comma-separated coordinate elements")
@_with_spec
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


@main.command("torsion")
@click.option("--connection", "conn_path", required=True, type=click.Path())
@_with_spec
def torsion_cmd(ctx, spec, conn_path):
    """Torsion 2-forms of a connection."""
    from .files import load_connection
    from .geometry import torsion

    tor = torsion(spec, load_connection(spec, _read(conn_path)))
    _emit(ctx, [f"Theta(theta[{s}]) = {t}" for s, t in tor.items()])
    return all(t.is_zero() for t in tor.values())


@main.command("torsion-conditions")
@_with_spec
def torsion_conditions_cmd(ctx, spec):
    """Emit the linear torsion-free conditions on the connection."""
    from .geometry import torsion_free_conditions

    conds = torsion_free_conditions(spec)
    return _emit(ctx, str(conds).splitlines() or ["conditions = none"])


@main.command("curvature")
@click.option("--connection", "conn_path", required=True, type=click.Path())
@click.option("--theta", "theta_label", required=True)
@_with_spec
def curvature_cmd(ctx, spec, conn_path, theta_label):
    """Curvature R(theta^s) of a connection."""
    from .files import load_connection
    from .geometry import curvature

    conn = load_connection(spec, _read(conn_path))
    R = curvature(spec, conn, GradedForm.theta(spec, theta_label))
    return _emit(ctx, [f"R(theta[{theta_label}]) = {R}"])


@main.command("metric-check")
@click.option("--metric", "metric_path", required=True, type=click.Path())
@click.option("--connection", "conn_path", default=None, type=click.Path())
@_with_spec
def metric_check(ctx, spec, metric_path, conn_path):
    """Metric invariance conditions, plus compatibility if a connection is given."""
    from .files import load_connection, load_metric
    from .geometry import metric_compatibility, metric_invariance_conditions

    g = load_metric(spec, _read(metric_path))
    rep = Report("metric")
    rep.merge(metric_invariance_conditions(spec, g), "invariance")
    if conn_path:
        conn = load_connection(spec, _read(conn_path))
        rep.merge(metric_compatibility(spec, conn, g), "compatibility")
    return _emit(ctx, rep, "metric")


@main.command("levi-civita")
@click.option("--metric", "metric_path", required=True, type=click.Path())
@click.option("--connection", "conn_path", required=True, type=click.Path())
@_with_spec
def levi_civita(ctx, spec, metric_path, conn_path):
    """Torsion-free plus metric-compatible (existence only, never uniqueness)."""
    from .files import load_connection, load_metric
    from .geometry import levi_civita_check

    g = load_metric(spec, _read(metric_path))
    conn = load_connection(spec, _read(conn_path))
    return _emit(ctx, levi_civita_check(spec, conn, g), "levi_civita")


@main.group()
def preset():
    """Catalog of the worked examples."""


@preset.command("list")
@click.pass_context
def preset_list(ctx):
    for pid in PRESET_IDS:
        click.echo(pid)


@preset.command("show")
@click.argument("preset_id")
@click.option("--serialize", "do_serialize", is_flag=True,
              help="emit the calculus in the definition-file format")
@click.pass_context
def preset_show(ctx, preset_id, do_serialize):
    def go():
        bundle = load_preset(preset_id)
        if do_serialize:
            from .files import serialize_calculus

            click.echo(serialize_calculus(bundle.spec))
        else:
            click.echo(bundle.describe())
        return True
    _run(go)


@preset.command("run")
@click.argument("preset_id")
@click.pass_context
def preset_run(ctx, preset_id):
    def go():
        bundle = load_preset(preset_id)
        with _jobs_map(ctx) as map_:
            rep = bundle.run_fixtures(map=map_)
        return _emit(ctx, rep, f"preset.{bundle.id}")
    _run(go)


if __name__ == "__main__":
    main()
