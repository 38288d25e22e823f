"""Command-line front end.

Exit codes: 0 all checks pass, 1 check failure, 2 input error,
3 internal inconsistency (non-confluent rules, broken derived structure).
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import click

from .algebra import AlgebraError
from .calculus import (CalculusError, GradedForm, InconsistentCalculus,
                       differential, move_left, parse_form,
                       solve_theta_in_differentials)
from .files import (FileFormatError, load_calculus, load_connection,
                    load_metric, serialize_calculus)
from .geometry import (curvature, levi_civita_check, metric_compatibility,
                       metric_invariance_conditions, torsion,
                       torsion_free_conditions)
from .parsing import ParseError
from .presets import PRESET_IDS, PresetError, load_preset
from .report import Report
from .scalar import ScalarError
from . import suites

EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


class Session:
    """A fully loaded, verified calculus plus declared side-conditions."""

    def __init__(self, spec, bundle=None, side_conditions=()):
        self.spec = spec
        self.pres = spec.pres
        self.bundle = bundle
        self.side_conditions = tuple(side_conditions) + tuple(spec.side_conditions)

    @property
    def theta_images(self):
        return None if self.bundle is None else self.bundle.extras.get("theta_images")


def _env_side_conditions():
    raw = os.environ.get("NCCALC_SIDE_CONDITIONS", "")
    return tuple(s.strip() for s in raw.replace(";", ",").split(",") if s.strip())


def _load_session(ctx) -> Session:
    preset = ctx.obj.get("preset")
    path = ctx.obj.get("file")
    extra = ctx.obj.get("side_conditions", ())
    if preset and path:
        raise click.UsageError("give either --preset or --file, not both")
    if preset:
        bundle = load_preset(preset)
        return Session(bundle.spec, bundle, extra + _env_side_conditions())
    if path:
        with open(path) as fh:
            spec = load_calculus(fh.read())  # confluence-gated inside
        return Session(spec, None, extra + _env_side_conditions())
    raise click.UsageError("no calculus loaded; use --preset or --file")


def _emit(ctx, report_or_lines, prefix="result"):
    fmt = ctx.obj.get("format", "text")
    if isinstance(report_or_lines, Report):
        click.echo(report_or_lines.structured(prefix) if fmt == "structured"
                   else report_or_lines.text())
        return report_or_lines.ok
    lines = report_or_lines
    if isinstance(lines, str):
        lines = [lines]
    if fmt == "structured":
        for i, line in enumerate(lines):
            if " = " in line or line.startswith(prefix):
                click.echo(line)
            else:
                click.echo(f"{prefix}.{i} = {line}")
    else:
        for line in lines:
            click.echo(line)
    return True


@contextmanager
def _jobs_map(ctx):
    """The map for independent checks: builtin at --jobs 1, else a thread pool's."""
    jobs = ctx.obj.get("jobs", 1)
    if jobs == 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield pool.map


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _run(ctx, fn):
    try:
        ok = fn()
    except (ParseError, FileFormatError, PresetError, FileNotFoundError) as exc:
        _fail(EXIT_INPUT_ERROR, exc)
    except (InconsistentCalculus,) as exc:
        _fail(EXIT_INTERNAL, exc)
    except (AlgebraError, CalculusError, ScalarError) as exc:
        _fail(EXIT_INPUT_ERROR, exc)
    if not ok:
        sys.exit(EXIT_CHECK_FAILED)


@click.group()
@click.option("--preset", type=str, default=None, help="load a catalog preset")
@click.option("--file", "file_", type=click.Path(), default=None,
              help="load a calculus definition file")
@click.option("--format", "format_", type=click.Choice(["text", "structured"]),
              default="text", help="output format")
@click.option("--jobs", type=int, default=1, help="parallel independent checks")
@click.option("--side-condition", multiple=True,
              help="declare a parameter side-condition (recorded, not decided)")
@click.pass_context
def main(ctx, preset, file_, format_, jobs, side_condition):
    """Exact engine for differential calculi on finitely presented algebras."""
    ctx.ensure_object(dict)
    ctx.obj.update(preset=preset, file=file_, format=format_, jobs=max(1, jobs),
                   side_conditions=tuple(side_condition))


@main.command()
@click.argument("expr")
@click.pass_context
def normalize(ctx, expr):
    """Normal form of an algebra expression."""
    def go():
        ses = _load_session(ctx)
        return _emit(ctx, [f"normal_form = {ses.pres.parse(expr)}"])
    _run(ctx, go)


@main.command()
@click.option("--expr", required=True)
@click.pass_context
def d(ctx, expr):
    """Differential of an algebra element (or of a form expression)."""
    def go():
        ses = _load_session(ctx)
        form = parse_form(ses.spec, expr)
        from .calculus import d_form
        if set(form.degrees()) <= {0}:
            out = differential(ses.spec, form.component(0).get((), ses.pres.zero))
        else:
            out = d_form(ses.spec, form)
        return _emit(ctx, [f"d = {out}"])
    _run(ctx, go)


@main.command()
@click.option("--expr", required=True, help="algebra element to move")
@click.option("--thetas", required=True, help="comma-separated theta labels")
@click.pass_context
def commute(ctx, expr, thetas):
    """Move a coefficient to the left through a theta word."""
    def go():
        ses = _load_session(ctx)
        word = tuple(s.strip() for s in thetas.split(","))
        out = move_left(ses.spec, ses.pres.parse(expr), word)
        return _emit(ctx, [f"moved = {out}"])
    _run(ctx, go)


@main.command()
@click.pass_context
def relations(ctx):
    """The theta commutation table theta^s f = phi_s(f) theta^s."""
    def go():
        ses = _load_session(ctx)
        lines = []
        for s in ses.spec.directions.labels:
            for g in ses.pres.generators:
                img = ses.spec.phi(s).apply(ses.pres.gen(g.name))
                lines.append(f"theta[{s}]*{g.name} = ({img})*theta[{s}]")
        return _emit(ctx, lines)
    _run(ctx, go)


@main.command("two-forms")
@click.pass_context
def two_forms(ctx):
    """Print the 2-form structure (relations, Delta table, zeta, basis)."""
    def go():
        ses = _load_session(ctx)
        ts = ses.spec.two_forms
        if ts is None:
            return _emit(ctx, ["two_forms = none (first-order calculus)"])
        return _emit(ctx, ts.describe().splitlines())
    _run(ctx, go)


_SUITES = ("inner", "leibniz", "d2", "differentiability", "twisted-2forms",
           "graded-leibniz", "properties")


def _run_suite(ses: Session, name, samples):
    spec = ses.spec
    if name == "inner":
        return suites.suite_inner(spec)
    if name == "leibniz":
        return suites.suite_leibniz(spec, samples=samples)
    if name == "graded-leibniz":
        return suites.suite_graded_leibniz(spec, samples=max(5, samples // 4))
    if name == "d2":
        return suites.suite_d2(spec, samples=samples)
    if name == "differentiability":
        simple = bool(ses.bundle and ses.bundle.extras.get("simple"))
        return suites.suite_differentiability(spec, ses.theta_images, simple=simple)
    if name == "twisted-2forms":
        return suites.suite_twisted_two_forms(spec)
    if name == "properties":
        return suites.property_suite(spec, samples=samples)
    raise click.UsageError(f"unknown suite {name!r}")


@main.command()
@click.option("--suite", "suite_names", multiple=True,
              type=click.Choice(_SUITES + ("all",)), default=("all",))
@click.option("--samples", type=int, default=25, help="randomized sample count")
@click.option("--all-presets", is_flag=True, help="run over the whole catalog")
@click.pass_context
def verify(ctx, suite_names, samples, all_presets):
    """Run verification suites; exit 0 iff everything passes."""
    names = list(suite_names)
    if "all" in names:
        names = [s for s in _SUITES if s != "properties"]

    def one_session(ses, tag=""):
        rep = Report(f"verify {tag}".strip())
        for name in names:
            rep.merge(_run_suite(ses, name, samples), prefix=(f"{tag}.{name}" if tag else name))
        return rep

    def go():
        if all_presets:
            rep = Report("verify all presets")

            def run_one(pid):
                bundle = load_preset(pid)
                return one_session(Session(bundle.spec, bundle), pid)

            with _jobs_map(ctx) as map_:
                for part in map_(run_one, PRESET_IDS):
                    rep.merge(part)
            return _emit(ctx, rep, "verify")
        ses = _load_session(ctx)
        return _emit(ctx, one_session(ses), "verify")
    _run(ctx, go)


@main.command("theta-solve")
@click.option("--coords", required=True, help="comma-separated coordinate elements")
@click.pass_context
def theta_solve(ctx, coords):
    """Express the theta basis through differentials of the coordinates."""
    def go():
        ses = _load_session(ctx)
        exprs = [c.strip() for c in coords.split(",")]
        sol = solve_theta_in_differentials(ses.spec, exprs)
        if not sol.ok:
            lines = ["solve = failed (matrix not invertible)"]
            for i, row in enumerate(sol.matrix):
                lines.append(f"matrix.{i} = " + " | ".join(str(x) for x in row))
            _emit(ctx, lines)
            return False
        lines = []
        if sol.det is not None:
            lines.append(f"det = {sol.det}")
        for s in ses.spec.directions.labels:
            parts = [f"({c})*d({e})" for c, e in zip(sol.coefficients[s], exprs)
                     if not c.is_zero()]
            lines.append(f"theta[{s}] = " + (" + ".join(parts) if parts else "0"))
        return _emit(ctx, lines)
    _run(ctx, go)


@main.command("torsion")
@click.option("--connection", "conn_path", required=True, type=click.Path())
@click.pass_context
def torsion_cmd(ctx, conn_path):
    """Torsion 2-forms of a connection."""
    def go():
        ses = _load_session(ctx)
        with open(conn_path) as fh:
            conn = load_connection(ses.spec, fh.read())
        tor = torsion(ses.spec, conn)
        rep = Report("torsion")
        for s, t in tor.items():
            rep.add(f"theta.{s}", t.is_zero(), f"Theta(theta^{s}) = {t}")
        lines = [f"Theta(theta[{s}]) = {t}" for s, t in tor.items()]
        _emit(ctx, lines)
        return all(t.is_zero() for t in tor.values())
    _run(ctx, go)


@main.command("torsion-conditions")
@click.pass_context
def torsion_conditions_cmd(ctx):
    """Emit the linear torsion-free conditions on the connection."""
    def go():
        ses = _load_session(ctx)
        conds = torsion_free_conditions(ses.spec)
        return _emit(ctx, str(conds).splitlines() or ["conditions = none"])
    _run(ctx, go)


@main.command("curvature")
@click.option("--connection", "conn_path", required=True, type=click.Path())
@click.option("--theta", "theta_label", required=True)
@click.pass_context
def curvature_cmd(ctx, conn_path, theta_label):
    """Curvature R(theta^s) of a connection."""
    def go():
        ses = _load_session(ctx)
        with open(conn_path) as fh:
            conn = load_connection(ses.spec, fh.read())
        R = curvature(ses.spec, conn, GradedForm.theta(ses.spec, theta_label))
        return _emit(ctx, [f"R(theta[{theta_label}]) = {R}"])
    _run(ctx, go)


@main.command("metric-check")
@click.option("--metric", "metric_path", required=True, type=click.Path())
@click.option("--connection", "conn_path", default=None, type=click.Path())
@click.pass_context
def metric_check(ctx, metric_path, conn_path):
    """Metric invariance conditions, plus compatibility if a connection is given."""
    def go():
        ses = _load_session(ctx)
        with open(metric_path) as fh:
            g = load_metric(ses.spec, fh.read())
        rep = Report("metric")
        rep.merge(metric_invariance_conditions(ses.spec, g), "invariance")
        if conn_path:
            with open(conn_path) as fh:
                conn = load_connection(ses.spec, fh.read())
            rep.merge(metric_compatibility(ses.spec, conn, g), "compatibility")
        return _emit(ctx, rep, "metric")
    _run(ctx, go)


@main.command("levi-civita")
@click.option("--metric", "metric_path", required=True, type=click.Path())
@click.option("--connection", "conn_path", required=True, type=click.Path())
@click.pass_context
def levi_civita(ctx, metric_path, conn_path):
    """Torsion-free plus metric-compatible (existence only, never uniqueness)."""
    def go():
        ses = _load_session(ctx)
        with open(metric_path) as fh:
            g = load_metric(ses.spec, fh.read())
        with open(conn_path) as fh:
            conn = load_connection(ses.spec, fh.read())
        return _emit(ctx, levi_civita_check(ses.spec, conn, g), "levi_civita")
    _run(ctx, go)


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
            click.echo(serialize_calculus(bundle.spec))
        else:
            click.echo(bundle.describe())
        return True
    _run(ctx, go)


@preset.command("run")
@click.argument("preset_id")
@click.pass_context
def preset_run(ctx, preset_id):
    def go():
        bundle = load_preset(preset_id)
        with _jobs_map(ctx) as map_:
            rep = bundle.run_fixtures(map=map_)
        return _emit(ctx, rep, f"preset.{bundle.id}")
    _run(ctx, go)


if __name__ == "__main__":
    main()
