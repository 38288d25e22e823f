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

    [automorphisms]      # one line each per direction label; each generator
    1: x -> q^-1*x, y -> y   # at most once on a line, x -> x if absent
    1 inverse: x -> q*x, y -> y

    [weights]            # automorphism mode; or [twists] for twisted mode;
    1 = t1               # at most one line per direction label

    [theta_scalings]     # optional: phi_s(theta^u) = c theta^t, c = 1 if absent;
    1 2 = 1/(p*q)        # s and u must be direction labels and c nonzero

    [side_conditions]    # optional: kept with the calculus, never decided
    p*q != 1

    [two_forms]          # optional candidate, checked by the CalculusSpec constructor
    basis = 1 2 ; 2 1
    reduce 2 2 =
    delta 1 = -1 : 1 3 , x : 2 1
    zeta = 1 : 1 2

A header other than these ten section names is an error.

The [two_forms] tables go to the CalculusSpec constructor, which checks
them against the twisted master identity; without them a group-classified
automorphism calculus derives its 2-forms there, so a file and a preset
build a calculus the same way.

phi_s(theta^u) is derived from the automorphisms: theta^t is theta^u when
phi_u equals phi_s o phi_u o phi_s^-1, else the theta whose phi_t does,
times the [theta_scalings] factor for (s, u).  So a file written by
`nccalc preset show <id> --serialize` verifies like the preset itself.

Connection and metric files are tabular:

    V[1,2,1] = q
    g[1,2] = x*y
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from .algebra import AlgebraError, Presentation, verify_morphism
from .calculus import (CalculusError, CalculusSpec, DirectionSet, InconsistentCalculus,
                       check_theta_scaling)
from .parsing import FileFormatError, ParseError
from .scalar import Scalar, ScalarError, parse_scalar


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
    except (FileFormatError, ParseError, AlgebraError, CalculusError, ScalarError) as exc:
        where = f"line {n}" if section is None else f"[{section}] line {n}"
        raise FileFormatError(f"{where}: {exc}") from exc


def _assignment(line, what):
    if "=" not in line:
        raise FileFormatError(f"bad {what} line: {line!r}")
    lhs, rhs = line.split("=", 1)
    return lhs.strip(), rhs.strip()


def _new_label(directions, label, seen):
    """label, if it is a direction label not yet in seen (one section's entries)."""
    directions.word((label,))
    if label in seen:
        raise FileFormatError(f"repeated direction {label}")
    return label


# The sections of presentation and calculus files; both loaders accept all
# ten, and a presentation reads the first three.
SECTIONS = ("params", "generators", "relations", "directions", "automorphisms",
            "weights", "twists", "theta_scalings", "side_conditions", "two_forms")


class _Section(list):
    """A section's (file line number, line) pairs; header is the file line
    of its [name] line, where an error in the section as a whole is located."""

    def __init__(self, header):
        super().__init__()
        self.header = header


def parse_sections(text):
    """Section name -> [(file line number, line)], comments and blank lines
    dropped; a header that names no section of SECTIONS, or one named
    before, is an error."""
    sections = {}
    current = None
    for n, line in _strip_lines(text):
        m = re.fullmatch(r"\[([^][]*)\]", line)
        if m:
            current = m.group(1)
            if current not in SECTIONS:
                raise FileFormatError(f"line {n}: unknown section [{current}]")
            if current in sections:
                raise FileFormatError(f"line {n}: repeated section [{current}]")
            sections[current] = _Section(n)
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
    """The DirectionSet of the [directions] lines, and the file line of its
    labels line."""
    labels = None
    biangles = []
    triangles = {}
    quads = {}
    named = []  # (file line, direction labels a class line names)
    pairs = set()
    for n, line in lines:
        with _at(n, "directions"):
            if line.startswith("labels"):
                labels_at, labels = n, _assignment(line, "directions")[1].split()
                continue
            m = re.fullmatch(r"class\s+(\S+)\s+(\S+)\s*=\s*(.+)", line)
            if not m:
                raise FileFormatError(f"bad directions line: {line!r}")
            pair = (m.group(1), m.group(2))
            if pair in pairs:
                raise FileFormatError(f"repeated pair {pair[0]} {pair[1]}")
            pairs.add(pair)
            named.append((n, pair))
            kind = m.group(3).split()
            if kind[0] == "biangle":
                biangles.append(pair)
            elif kind[0] == "triangle" and len(kind) > 1:
                triangles[pair] = kind[1]
                named.append((n, (kind[1],)))
            elif kind[0] == "quadrangle" and len(kind) > 1:
                quads.setdefault(kind[1], []).append(pair)
            else:
                raise FileFormatError(f"unknown pair class {m.group(3)!r}")
    if labels is None:
        raise FileFormatError("[directions] needs a labels line")
    with _at(labels_at, "directions"):
        plain = DirectionSet(labels)
    if not named:
        return plain, labels_at
    for n, names in named:
        with _at(n, "directions"):
            plain.word(names)
    classes = [tuple(quads[name]) for name in sorted(quads, key=_class_name_key)]
    with _at(labels_at, "directions"):
        return DirectionSet(labels, biangles, triangles, classes), labels_at


def _class_name_key(name):
    """Quadrangle class names in numeric order (g2 before g10), else as text."""
    # splitting on a captured digit run puts the runs at the odd positions
    return [int(t) if i % 2 else t for i, t in enumerate(re.split(r"(\d+)", name))], name


def _morphisms_from_sections(pres, directions, lines):
    """label -> verified automorphism, and label -> its first file line."""
    images = {}
    inverses = {}
    first_line = {}
    for n, line in lines:
        with _at(n, "automorphisms"):
            m = re.fullmatch(r"(\S+?)(\s+inverse)?\s*:\s*(.+)", line)
            if not m:
                raise FileFormatError(f"bad automorphism line: {line!r}")
            label, is_inv, body = m.group(1), bool(m.group(2)), m.group(3)
            target = inverses if is_inv else images
            imgs = target[_new_label(directions, label, target)] = {}
            first_line.setdefault(label, n)
            for piece in body.split(","):
                if "->" not in piece:
                    raise FileFormatError(f"bad image in: {line!r}")
                g, expr = (t.strip() for t in piece.split("->", 1))
                pres.gen_index(g)  # an undeclared name is an error
                if g in imgs:
                    raise FileFormatError(f"repeated generator {g}")
                imgs[g] = pres.parse(expr)
    autos = {}
    for label, imgs in images.items():
        with _at(first_line[label], "automorphisms"):
            inv = inverses.get(label)
            if inv is None:
                raise FileFormatError(f"automorphism {label} has no inverse images")
            m = verify_morphism(pres, imgs, inverse_images=inv)
            if not m.verified:
                raise FileFormatError(
                    f"automorphism {label} violates relations: "
                    + "; ".join(f"{r}: {res}" for r, res in m.violations))
        autos[label] = m
    return autos, first_line


def _two_forms_from_sections(pres, directions, lines):
    """The [two_forms] tables, as the two_forms argument of CalculusSpec, and
    each table entry (a CalculusError label) -> its file line; every label
    on a line must be a direction label."""
    basis = zeta = None
    reduction = {}
    delta_table = {}
    entry_lines = {}

    def pair_of(text):
        pair = tuple(text.split())
        if len(pair) != 2:
            raise FileFormatError(f"expected two labels, got {text.strip()!r}")
        return directions.word(pair)

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
                c = parse_scalar(coeff.strip(), pres.params)
            else:
                c = pres.parse(coeff.strip())
            out.append((c, pair_of(pair)))
        return out

    for n, line in lines:
        with _at(n, "two_forms"):
            if line.startswith("basis"):
                if basis is not None:
                    raise FileFormatError("repeated basis line")
                basis = [pair_of(p) for p in _assignment(line, "basis")[1].split(";")]
                entry_lines[("basis",)] = n
                continue
            m = re.fullmatch(r"reduce\s+(\S+)\s+(\S+)\s*=(.*)", line)
            if m:
                pair = directions.word(m.group(1, 2))
                if pair in reduction:
                    raise FileFormatError(f"repeated pair {pair[0]} {pair[1]}")
                reduction[pair] = parse_combo(m.group(3), True)
                entry_lines[("reduce", *pair)] = n
                continue
            m = re.fullmatch(r"delta\s+(\S+)\s*=(.*)", line)
            if m:
                s = _new_label(directions, m.group(1), delta_table)
                delta_table[s] = {p: c for c, p in parse_combo(m.group(2), False)}
                entry_lines[("delta", s)] = n
                continue
            m = re.fullmatch(r"zeta\s*=(.*)", line)
            if m:
                if zeta is not None:
                    raise FileFormatError("repeated zeta line")
                zeta = {p: c for c, p in parse_combo(m.group(1), False)}
                entry_lines[("zeta",)] = n
                continue
            raise FileFormatError(f"bad two_forms line: {line!r}")
    if basis is None:
        raise FileFormatError("[two_forms] needs a basis line")
    return (dict(basis=basis, reduction=reduction, delta_table=delta_table, zeta=zeta or {}),
            entry_lines)


def load_calculus(text):
    """Parse a calculus file into a CalculusSpec, 2-forms included.

    The rewrite system is confluence-checked before anything is built on
    top of it: a non-confluent system has no well-defined normal forms.
    Errors in a line are reported as '[section] line n: message'; a
    direction whose automorphism (or twisted data) repeats an earlier one's
    is reported on its [automorphisms] (or [twists]) line, a zero weight on
    its [weights] line, a direction without an automorphism on the labels
    line, missing twist elements or twists given with weights on the first
    [twists] line (its header when the section is empty), a [two_forms]
    table error on the basis, reduce, delta or zeta line at fault, and a
    [two_forms] candidate that fails verification on the section header.
    Other construction errors are FileFormatError too, and
    InconsistentCalculus passes through.
    """
    from .algebra import check_local_confluence

    sections = parse_sections(text)
    pres = _presentation_from_sections(sections)
    conf = check_local_confluence(pres)
    if not conf.ok:
        raise InconsistentCalculus(str(conf))
    if "directions" not in sections:
        raise FileFormatError("no [directions] section")
    directions, labels_at = _directions_from_sections(sections["directions"])
    autos, auto_lines = _morphisms_from_sections(pres, directions,
                                                 sections.get("automorphisms", []))
    # CalculusError label -> (section, file line); a direction's twist line
    # replaces its automorphism line
    located = {s: ("automorphisms", n) for s, n in auto_lines.items()}
    located[("labels",)] = ("directions", labels_at)
    weights = None
    lambdas = None
    if "weights" in sections:
        weights = {}
        for n, line in sections["weights"]:
            with _at(n, "weights"):
                label, expr = _assignment(line, "weights")
                weights[_new_label(directions, label, weights)] = parse_scalar(expr, pres.params)
                located[("weights", label)] = ("weights", n)
    if "twists" in sections:
        lambdas = {}
        for n, line in sections["twists"]:
            with _at(n, "twists"):
                label, expr = _assignment(line, "twists")
                lambdas[_new_label(directions, label, lambdas)] = pres.parse(expr)
                located[label] = ("twists", n)
                located.setdefault(("twists",), ("twists", n))
        located.setdefault(("twists",), ("twists", sections["twists"].header))
    scalings = {}
    for n, line in sections.get("theta_scalings", []):
        with _at(n, "theta_scalings"):
            m = re.fullmatch(r"(\S+)\s+(\S+)\s*=\s*(.+)", line)
            if not m:
                raise FileFormatError(f"bad theta_scalings line: {line!r}")
            s, u = m.group(1), m.group(2)
            c = check_theta_scaling(directions, s, u, parse_scalar(m.group(3), pres.params))
            if (s, u) in scalings:
                raise FileFormatError(f"repeated pair {s} {u}")
            scalings[(s, u)] = c
    side = tuple(line for _, line in sections.get("side_conditions", []))
    two_forms = None
    if "two_forms" in sections:
        two_forms, two_form_lines = _two_forms_from_sections(pres, directions,
                                                             sections["two_forms"])
        located.update((entry, ("two_forms", n)) for entry, n in two_form_lines.items())
        located[("two_forms",)] = ("two_forms", sections["two_forms"].header)
    try:
        return CalculusSpec(pres, directions, autos, weights=weights, lambdas=lambdas,
                            theta_scalings=scalings, side_conditions=side,
                            two_forms=two_forms)
    except InconsistentCalculus:
        raise
    except CalculusError as exc:
        if exc.label not in located:
            raise FileFormatError(str(exc)) from exc
        section, n = located[exc.label]
        with _at(n, section):
            raise


def _table(spec, text, symbol, arity, what, flag=None):
    """Lines `symbol[l1,...,ln] = expr` as {(l1, ..., ln): element}, and
    whether a line that is just `flag` occurs."""
    labels = ",".join([r"([^,\]]+)"] * arity)
    pattern = re.compile(rf"{symbol}\[{labels}\]\s*=\s*(.+)")
    entries = {}
    flagged = False
    for n, line in _strip_lines(text):
        if line == flag:
            flagged = True
            continue
        with _at(n):
            m = pattern.fullmatch(line)
            if not m:
                raise FileFormatError(f"bad {what} line: {line!r}")
            *key, expr = (g.strip() for g in m.groups())
            entries[tuple(key)] = spec.pres.parse(expr)
    return entries, flagged


def load_connection(spec, text):
    """The Connection of a `V[s,u,t] = expr` table."""
    from .geometry import Connection  # here, so loading a calculus never imports geometry

    return Connection(spec, _table(spec, text, "V", 3, "connection")[0])


def load_metric(spec, text):
    """The Metric of a `g[s,u] = expr` table, with an optional `symmetric` line."""
    from .geometry import Metric

    entries, symmetric = _table(spec, text, "g", 2, "metric", flag="symmetric")
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
