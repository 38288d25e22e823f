"""Declarative text formats for presentations, calculi, connections, metrics.

Presentation files:

    [params]
    q

    [generators]
    x
    y invertible

    [relations]
    y*x = q^-1 * x*y

Calculus files add:

    [directions]
    labels = 1 2
    class 1 1 = quadrangle g20      # or: biangle / triangle <label>
    ...

    [automorphisms]
    1: x -> q^-1*x, y -> y
    1 inverse: x -> q*x, y -> y

    [weights]            # automorphism mode; or [twists] for twisted mode
    1 = t1

    [two_forms]          # optional candidate (twisted mode)
    basis = 1 2 ; 2 1
    reduce 2 2 =
    delta 1 = -1 : 1 3 , x : 2 1
    zeta = 1 : 1 2

Connection and metric files are tabular:

    V[1,2,1] = q
    g[1,2] = x*y
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from .algebra import AlgebraError, Presentation, verify_morphism
from .calculus import CalculusSpec, DirectionSet, TwoFormStructure, verify_twisted_two_forms
from .geometry import Connection, Metric
from .parsing import ParseError
from .scalar import Scalar, ScalarError, parse_scalar


class FileFormatError(ValueError):
    pass


def _strip_lines(text):
    """(1-based file line number, line) for each line with content."""
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield n, line


@contextmanager
def _at(n, section=None):
    """Report an error in a file line as '[section] line n: message'."""
    try:
        yield
    except (FileFormatError, ParseError, AlgebraError, ScalarError) as exc:
        where = f"line {n}" if section is None else f"[{section}] line {n}"
        raise FileFormatError(f"{where}: {exc}") from exc


def _assignment(line, what):
    if "=" not in line:
        raise FileFormatError(f"bad {what} line: {line!r}")
    lhs, rhs = line.split("=", 1)
    return lhs.strip(), rhs.strip()


def parse_sections(text):
    """Section name -> [(file line number, line)], comments and blank lines dropped."""
    sections = {}
    current = None
    for n, line in _strip_lines(text):
        m = re.fullmatch(r"\[([a-z_]+)\]", line)
        if m:
            current = m.group(1)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise FileFormatError(f"line {n}: line outside any section: {line!r}")
        sections[current].append((n, line))
    return sections


def load_presentation(text) -> Presentation:
    return _presentation_from_sections(parse_sections(text))


def _presentation_from_sections(sections):
    params = []
    for n, line in sections.get("params", []):
        with _at(n, "params"):
            Scalar.param(line)  # validates the name
        params.append(line)
    gens = []
    invertible = set()
    for n, line in sections.get("generators", []):
        with _at(n, "generators"):
            name, *flags = line.split()
            if flags and flags[0] != "invertible":
                raise FileFormatError(f"bad generator line: {line!r}")
            if name in gens:
                raise FileFormatError(f"duplicate generator {name!r}")
            if name in params:
                raise FileFormatError(f"generator {name!r} is also a parameter")
        gens.append(name)
        if flags:
            invertible.add(name)
    if not gens:
        raise FileFormatError("no [generators] section")
    pres = Presentation(gens, params=params, invertible=invertible)
    rules = []
    for n, line in sections.get("relations", []):
        with _at(n, "relations"):
            rules.append(pres._build_rule(*_assignment(line, "relation")))
    pres._install_rules(rules)
    return pres


def _directions_from_sections(lines):
    labels = None
    biangles = []
    triangles = {}
    quads = {}
    classified = False
    for n, line in lines:
        with _at(n, "directions"):
            if line.startswith("labels"):
                labels = _assignment(line, "directions")[1].split()
                continue
            m = re.fullmatch(r"class\s+(\S+)\s+(\S+)\s*=\s*(.+)", line)
            if not m:
                raise FileFormatError(f"bad directions line: {line!r}")
            classified = True
            pair = (m.group(1), m.group(2))
            kind = m.group(3).split()
            if kind[0] == "biangle":
                biangles.append(pair)
            elif kind[0] == "triangle" and len(kind) > 1:
                triangles[pair] = kind[1]
            elif kind[0] == "quadrangle" and len(kind) > 1:
                quads.setdefault(kind[1], []).append(pair)
            else:
                raise FileFormatError(f"unknown pair class {m.group(3)!r}")
    if labels is None:
        raise FileFormatError("[directions] needs a labels line")
    if classified:
        classes = [tuple(v) for _, v in sorted(quads.items())]
        return DirectionSet(labels, biangles, triangles, classes)
    return DirectionSet(labels)


def _morphisms_from_sections(pres, lines):
    images = {}
    inverses = {}
    first_line = {}
    for n, line in lines:
        with _at(n, "automorphisms"):
            m = re.fullmatch(r"(\S+?)(\s+inverse)?\s*:\s*(.+)", line)
            if not m:
                raise FileFormatError(f"bad automorphism line: {line!r}")
            label, is_inv, body = m.group(1), bool(m.group(2)), m.group(3)
            first_line.setdefault(label, n)
            target = inverses if is_inv else images
            imgs = target.setdefault(label, {})
            for piece in body.split(","):
                if "->" not in piece:
                    raise FileFormatError(f"bad image in: {line!r}")
                g, expr = piece.split("->", 1)
                imgs[g.strip()] = pres.parse(expr.strip())
    autos = {}
    for label, imgs in images.items():
        with _at(first_line[label], "automorphisms"):
            inv = inverses.get(label)
            if inv is None:
                raise FileFormatError(f"automorphism {label} has no inverse images")
            for g in pres.generators:
                imgs.setdefault(g.name, g.name)
                inv.setdefault(g.name, g.name)
            m = verify_morphism(pres, imgs, inverse_images=inv)
            if not m.verified:
                raise FileFormatError(
                    f"automorphism {label} violates relations: "
                    + "; ".join(f"{r}: {res}" for r, res in m.violations))
        autos[label] = m
    return autos


def _two_forms_from_sections(spec, lines):
    basis = None
    reduction = {}
    delta_table = {}
    zeta = {}

    def pair_of(text):
        pair = tuple(text.split())
        if len(pair) != 2:
            raise FileFormatError(f"expected two labels, got {text.strip()!r}")
        return pair

    def parse_combo(text, scalars_only):
        out = []
        text = text.strip()
        if not text:
            return out
        for item in text.split(","):
            if ":" not in item:
                raise FileFormatError(f"bad 2-form combination item: {item!r}")
            coeff, pair = item.rsplit(":", 1)
            if scalars_only:
                c = parse_scalar(coeff.strip(), spec.pres.params)
            else:
                c = spec.pres.parse(coeff.strip())
            out.append((c, pair_of(pair)))
        return out

    for n, line in lines:
        with _at(n, "two_forms"):
            if line.startswith("basis"):
                basis = [pair_of(p) for p in _assignment(line, "basis")[1].split(";")]
                continue
            m = re.fullmatch(r"reduce\s+(\S+)\s+(\S+)\s*=(.*)", line)
            if m:
                reduction[(m.group(1), m.group(2))] = parse_combo(m.group(3), True)
                continue
            m = re.fullmatch(r"delta\s+(\S+)\s*=(.*)", line)
            if m:
                delta_table[m.group(1)] = {p: c for c, p in parse_combo(m.group(2), False)}
                continue
            m = re.fullmatch(r"zeta\s*=(.*)", line)
            if m:
                zeta = {p: c for c, p in parse_combo(m.group(1), False)}
                continue
            raise FileFormatError(f"bad two_forms line: {line!r}")
    if basis is None:
        raise FileFormatError("[two_forms] needs a basis line")
    return TwoFormStructure(spec, basis, reduction, delta_table, zeta)


def load_calculus(text):
    """Parse a calculus file; returns the spec with two-forms attached.

    The rewrite system is confluence-checked before anything is built on
    top of it: a non-confluent system has no well-defined normal forms.
    Errors in a line are reported as '[section] line n: message'.
    """
    from .algebra import check_local_confluence
    from .calculus import InconsistentCalculus, two_form_structure

    sections = parse_sections(text)
    pres = _presentation_from_sections(sections)
    conf = check_local_confluence(pres)
    if not conf.ok:
        raise InconsistentCalculus(str(conf))
    if "directions" not in sections:
        raise FileFormatError("no [directions] section")
    directions = _directions_from_sections(sections["directions"])
    autos = _morphisms_from_sections(pres, sections.get("automorphisms", []))
    weights = None
    lambdas = None
    if "weights" in sections:
        weights = {}
        for n, line in sections["weights"]:
            with _at(n, "weights"):
                label, expr = _assignment(line, "weights")
                weights[label] = parse_scalar(expr, pres.params)
    if "twists" in sections:
        lambdas = {}
        for n, line in sections["twists"]:
            with _at(n, "twists"):
                label, expr = _assignment(line, "twists")
                lambdas[label] = pres.parse(expr)
    scalings = {}
    for n, line in sections.get("theta_scalings", []):
        with _at(n, "theta_scalings"):
            m = re.fullmatch(r"(\S+)\s+(\S+)\s*=\s*(.+)", line)
            if not m:
                raise FileFormatError(f"bad theta_scalings line: {line!r}")
            scalings[(m.group(1), m.group(2))] = parse_scalar(m.group(3), pres.params)
    side = tuple(line for _, line in sections.get("side_conditions", []))
    spec = CalculusSpec(pres, directions, autos, weights=weights, lambdas=lambdas,
                        theta_scalings=scalings, side_conditions=side)
    if "two_forms" in sections:
        cand = _two_forms_from_sections(spec, sections["two_forms"])
        rep = verify_twisted_two_forms(spec, cand)
        if not rep.ok:
            raise FileFormatError("two-form candidate fails verification:\n" + rep.text())
        spec.set_two_forms(cand)
    elif spec.mode == "automorphism" and directions.classified:
        spec.set_two_forms(two_form_structure(spec))
    return spec


def load_connection(spec, text) -> Connection:
    entries = {}
    for n, line in _strip_lines(text):
        with _at(n):
            m = re.fullmatch(r"V\[([^,\]]+),([^,\]]+),([^,\]]+)\]\s*=\s*(.+)", line)
            if not m:
                raise FileFormatError(f"bad connection line: {line!r}")
            key = (m.group(1).strip(), m.group(2).strip(), m.group(3).strip())
            entries[key] = spec.pres.parse(m.group(4).strip())
    return Connection(spec, entries)


def load_metric(spec, text) -> Metric:
    entries = {}
    symmetric = False
    for n, line in _strip_lines(text):
        if line == "symmetric":
            symmetric = True
            continue
        with _at(n):
            m = re.fullmatch(r"g\[([^,\]]+),([^,\]]+)\]\s*=\s*(.+)", line)
            if not m:
                raise FileFormatError(f"bad metric line: {line!r}")
            entries[(m.group(1).strip(), m.group(2).strip())] = spec.pres.parse(m.group(3).strip())
    return Metric(spec, entries, symmetric=symmetric)


# ---------------------------------------------------------------------------
# serialization


def serialize_presentation(pres) -> str:
    lines = []
    if pres.params:
        lines.append("[params]")
        lines.extend(pres.params)
        lines.append("")
    lines.append("[generators]")
    for g in pres.generators:
        lines.append(f"{g.name} invertible" if g.invertible else g.name)
    lines.append("")
    lines.append("[relations]")
    for rule in pres.rules:
        rhs = pres.poly(dict(rule.rhs))
        lines.append(f"{pres.word_str(rule.lhs)} = {rhs}")
    return "\n".join(lines) + "\n"


def serialize_calculus(spec) -> str:
    lines = [serialize_presentation(spec.pres)]
    d = spec.directions
    lines.append("[directions]")
    lines.append("labels = " + " ".join(d.labels))
    if d.classified:
        for (a, b) in sorted(d.biangles):
            lines.append(f"class {a} {b} = biangle")
        for (a, b), t in sorted(d.triangles.items()):
            lines.append(f"class {a} {b} = triangle {t}")
        for i, cls in enumerate(d.quad_classes):
            for (a, b) in cls:
                lines.append(f"class {a} {b} = quadrangle g{i}")
    lines.append("")
    lines.append("[automorphisms]")
    for s in d.labels:
        m = spec.phi(s)
        lines.append(f"{s}: " + ", ".join(
            f"{g.name} -> {m.images[g.name]}" for g in spec.pres.generators))
        lines.append(f"{s} inverse: " + ", ".join(
            f"{g.name} -> {m.inverse.images[g.name]}" for g in spec.pres.generators))
    lines.append("")
    if spec.mode == "automorphism":
        lines.append("[weights]")
        for s in d.labels:
            lines.append(f"{s} = {spec.weights[s]}")
    else:
        lines.append("[twists]")
        for s in d.labels:
            lines.append(f"{s} = {spec.lambdas[s]}")
    if spec.theta_scalings:
        lines.append("")
        lines.append("[theta_scalings]")
        for (s, u), c in sorted(spec.theta_scalings.items()):
            lines.append(f"{s} {u} = {c}")
    if spec.side_conditions:
        lines.append("")
        lines.append("[side_conditions]")
        lines.extend(spec.side_conditions)
    ts = spec.two_forms
    if ts is not None and spec.mode == "twisted":
        lines.append("")
        lines.append("[two_forms]")
        lines.append("basis = " + " ; ".join(f"{a} {b}" for a, b in ts.basis))
        for (a, b), combo in sorted(ts.reduction.items()):
            body = " , ".join(f"{c} : {u} {v}" for c, (u, v) in combo)
            lines.append(f"reduce {a} {b} = {body}")
        for s, tab in sorted(ts.delta_table.items()):
            body = " , ".join(f"{c} : {u} {v}" for (u, v), c in sorted(tab.items()))
            lines.append(f"delta {s} = {body}")
        if ts.zeta:
            body = " , ".join(f"{c} : {u} {v}" for (u, v), c in sorted(ts.zeta.items()))
            lines.append(f"zeta = {body}")
    return "\n".join(lines) + "\n"
