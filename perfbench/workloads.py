"""In-process workloads: seeded inputs, the items they run, and their gates.

An item is one unit of user-visible work with a verdict.  A round is a
fixed-size batch of items drawn from one seeded generator, so two rounds
with the same seed are the same work.  Every gate compares the engine's
answer with a reference that the code under test does not produce: the
identities a property must satisfy, a closed-form determinant, or a
connection built to satisfy (or to violate) the torsion-free conditions.
"""

from __future__ import annotations

import random
import resource
from typing import Callable, NamedTuple

from nccalc import (Connection, CalculusSpec, DirectionSet, GradedForm, Metric,
                    Presentation, curvature, levi_civita_check, load_preset,
                    metric_compatibility, solve_theta_in_differentials, torsion,
                    torsion_free_conditions, verify_morphism)
from nccalc.calculus import theta_solution_form
from nccalc.linalg import det_cofactor
from nccalc.presets import PRESET_IDS
from nccalc.scalar import Scalar
from nccalc.suites import property_suite, random_poly

import speed
from spans import Recorder


class Item(NamedTuple):
    kind: str
    run: Callable[[], tuple]  # () -> (ok, detail)


# Presets whose calculus is automorphism-mode over a group-classified
# direction set with a 2-form structure: torsion_free_conditions applies.
# A geometry item's median latency at reference speed (see speed.py) is
# about 230 ms on the first, 80-105 ms on the next four and 20-45 ms on the
# rest (2 vCPUs, Python 3.11).
GEOMETRY_PRESETS = ("group_lattice_s3",
                    "h_plane", "heisenberg", "quantum_torus", "tensor_hplane",
                    "group_lattice_z3", "poly_shift_S12", "poly_shift_sym",
                    "quantum_plane_a", "quantum_plane_b", "quantum_plane_c",
                    "tensor_qplane")
# Items per round for each of those cost classes: one of the first and
# two (one torsion-free, one twisted) of every other.  The shares (1, 8 and
# 14 of 23) put p50 in the upper part of the cheapest class and p90 in the
# upper part of the middle one, where the classes' latencies overlap,
# rather than at a jump between classes.  Fixed pairs keep the mix of
# torsion-free and twisted items the same in every round.
GEOMETRY_COPIES = (1,) + (2,) * 11

# Every property of the battery is an identity, so every check must pass.
PROPERTY_EXPECTATION = True


def vandermonde(pres, shifts):
    """prod a_k * prod_{j<k} (a_k - a_j): det of e_s(x^j) for shifts x -> x + a_k."""
    out = Scalar.one()
    for k, a in enumerate(shifts):
        out = out * a
        for b in shifts[:k]:
            out = out * (a - b)
    return pres.const(out)


def torsion_free_connection(spec, rng, perturb=False):
    """A connection that satisfies every torsion-free equation, or all but one.

    Keys shared between equations get random values; each equation is then
    solved for its own key.  With `perturb`, one solved key is shifted by a
    nonzero constant, which breaks exactly that equation.  Returns the
    connection entries and whether the connection is torsion-free.
    """
    pres = spec.pres
    equations = torsion_free_conditions(spec).equations
    uses = {}
    for eq in equations:
        for key, _ in eq.terms:
            uses[key] = uses.get(key, 0) + 1
    entries = {}
    solved = []
    for eq in equations:
        own = [key for key, _ in eq.terms if uses[key] == 1 and key not in entries]
        target = own[-1]
        acc = pres.const(eq.const)
        for key, c in eq.terms:
            if key == target:
                tc = c
                continue
            if key not in entries:
                entries[key] = random_poly(pres, rng, max_len=1, terms=2)
            acc = acc + entries[key] * c
        entries[target] = acc * (-tc.inverse())
        solved.append(target)
    if perturb:
        key = rng.choice(solved)
        entries[key] = entries[key] + pres.const(rng.choice([-2, -1, 1, 2]))
    return entries, not perturb


def random_metric(spec, rng):
    labels = spec.directions.labels
    entries = {(a, b): random_poly(spec.pres, rng, max_len=1, terms=1)
               for a in labels for b in labels if rng.random() < 0.6}
    if not entries:
        entries[(labels[0], labels[0])] = spec.pres.one
    return Metric(spec, entries)


def _failed_checks(report):
    return [c.path for c in report.checks if c.ok != PROPERTY_EXPECTATION]


class InProcess:
    """Items run in this process; a traced round records its spans here."""

    in_process = True
    warm_up = True
    speed_reference = speed.IN_PROCESS
    _rec = None

    def begin_round(self, traced):
        self._rec = Recorder() if traced else None
        if self._rec is not None:
            self._rec.install()

    def end_round(self):
        rec, self._rec = self._rec, None
        if rec is None:
            return [], {}
        rec.uninstall()
        return [rec.summary()], {}

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self):
        pass


class Battery(InProcess):
    """The randomized property battery of acceptance criterion 12, one sample per item."""

    name = "battery"
    setup_module = "nccalc"

    def __init__(self, tiny=False):
        self.presets = PRESET_IDS[:2] if tiny else PRESET_IDS
        self.per_preset = 1 if tiny else 2
        self.specs = {}

    def prepare(self, rng):
        self.specs = {pid: load_preset(pid).spec for pid in self.presets}

    def round_items(self, rng):
        items = []
        for pid in self.presets:
            for _ in range(self.per_preset):
                items.append(Item(pid, _battery_item(self.specs[pid], rng.randrange(2 ** 31))))
        return items


def _battery_item(spec, seed):
    def run():
        bad = _failed_checks(property_suite(spec, samples=1, seed=seed))
        return not bad, f"seed {seed}: {bad}"
    return run


class Symbolic(InProcess):
    """Symbolic shift calculi x -> x + i_k + c_k on C[x]: determinant and theta-solve."""

    name = "symbolic"
    setup_module = "nccalc"
    presets = ()
    warm_up = False  # every item builds its own calculus

    def __init__(self, tiny=False):
        # An n = 3 item costs as much as 25 items at n = 2 (1.2 s against
        # 50 ms on one core) and its cost doubles with its constants, so
        # one per round made the round time hang on a single draw; n = 4
        # costs about 20 s.  Rounds keep to n = 2.
        self.sizes = (2,) * (2 if tiny else 20)

    def prepare(self, rng):
        pass

    def round_items(self, rng):
        items = [Item(f"n{n}", _symbolic_item(n, [rng.randint(-3, 3) for _ in range(n)]))
                 for n in self.sizes]
        rng.shuffle(items)
        return items


def shift_calculus(n, consts):
    names = [f"i{k}" for k in range(1, n + 1)]
    pres = Presentation(["x"], params=names)
    autos = {}
    for k, (name, c) in enumerate(zip(names, consts)):
        a = f"{name} + {c}" if c >= 0 else f"{name} - {-c}"
        autos[str(k + 1)] = verify_morphism(pres, {"x": f"x + {a}"},
                                            inverse_images={"x": f"x - ({a})"})
    spec = CalculusSpec(pres, DirectionSet([str(k + 1) for k in range(n)]), autos)
    shifts = [Scalar.param(name) + c for name, c in zip(names, consts)]
    return spec, shifts


def _symbolic_item(n, consts):
    def run():
        spec, shifts = shift_calculus(n, consts)
        pres = spec.pres
        labels = spec.directions.labels
        x = pres.gen("x")
        coords = [x ** (j + 1) for j in range(n)]
        det = det_cofactor(pres, [[spec.e(s, f) for s in labels] for f in coords])
        if det != vandermonde(pres, shifts):
            return False, f"shifts {consts}: det {det}"
        sol = solve_theta_in_differentials(spec, coords)
        if not sol.ok:
            return False, f"shifts {consts}: matrix not inverted"
        for s in labels:
            if theta_solution_form(spec, sol, coords, s) != GradedForm.theta(spec, s):
                return False, f"shifts {consts}: theta[{s}] not reproduced"
        return True, ""
    return run


class Geometry(InProcess):
    """Seeded connections and metrics: torsion, curvature, compatibility, Levi-Civita."""

    name = "geometry"
    setup_module = "nccalc"

    def __init__(self, tiny=False):
        self.plan = (("quantum_plane_a", 2),) if tiny else tuple(zip(GEOMETRY_PRESETS,
                                                                     GEOMETRY_COPIES))
        self.presets = tuple(pid for pid, _ in self.plan)
        self.specs = {}

    def prepare(self, rng):
        self.specs = {pid: load_preset(pid).spec for pid in self.presets}

    def round_items(self, rng):
        # Copies alternate torsion-free and twisted, starting at random.
        items = []
        for pid, copies in self.plan:
            first = rng.random() < 0.5
            for k in range(copies):
                free = first == (k % 2 == 0)
                items.append(Item(f"{pid}.{'free' if free else 'twisted'}",
                                  _geometry_item(self.specs[pid], not free,
                                                 rng.randrange(2 ** 31))))
        rng.shuffle(items)
        return items


def _geometry_item(spec, perturb, seed):
    def run():
        rng = random.Random(seed)
        entries, expect_free = torsion_free_connection(spec, rng, perturb)
        conn = Connection(spec, entries)
        conditions_hold = torsion_free_conditions(spec).check(conn).ok
        torsion_zero = all(t.is_zero() for t in torsion(spec, conn).values())
        if not expect_free == conditions_hold == torsion_zero:
            return False, (f"seed {seed}: expected torsion-free {expect_free}, conditions "
                           f"{conditions_hold}, torsion zero {torsion_zero}")
        labels = spec.directions.labels
        R = {s: curvature(spec, conn, GradedForm.theta(spec, s)) for s in labels}
        s = rng.choice(labels)
        f = random_poly(spec.pres, rng)
        if curvature(spec, conn, f * GradedForm.theta(spec, s)) != R[s].mul_left(f):
            return False, f"seed {seed}: curvature not left-linear on f*theta[{s}]"
        g = random_metric(spec, rng)
        compat = metric_compatibility(spec, conn, g)
        if not all(c.ok for c in compat.checks if c.path == "paths_agree"):
            return False, f"seed {seed}: compatibility routes disagree"
        lc = levi_civita_check(spec, conn, g)
        lc_free = all(c.ok for c in lc.checks if c.path.startswith("torsion."))
        if lc_free != expect_free:
            return False, f"seed {seed}: levi-civita torsion verdict {lc_free}"
        return True, ""
    return run
