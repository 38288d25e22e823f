"""The `cli` workload: a seeded stream of fresh-process `nccalc` calls.

Every call is one child process, run to completion before the next one
starts (a closed loop with one client); only `--jobs 2` calls use a second
core.  Output is compared in `--format structured`, which is sorted and
does not depend on the hash seed.  Traced calls go through `cli_boot.py`,
which installs the span recorder and writes the spans when the call ends.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from nccalc import Connection, load_preset
from nccalc.files import load_connection, serialize_calculus
from nccalc.presets import PRESET_IDS

import speed
from spans import Recorder
from workloads import GEOMETRY_PRESETS, Item, torsion_free_connection

HERE = Path(__file__).resolve().parent

# Every call in the stream is valid input on which every check passes.
EXPECTED_EXIT = 0
CHILD_TIMEOUT_S = 120.0

# `preset run` costs 0.3-0.5 s per call on these presets (one core, Python
# 3.11), less than a glpq2 query (0.6 s).  The 2 `verify --all-presets`
# calls and 16 glpq2 queries of a round are its slowest 18 calls, so p90
# falls at the middle of the glpq2 queries rather than between two kinds
# of call or among a few of them.
PRESET_RUN_POOL = ("group_lattice_z3", "tensor_hplane", "tensor_qplane", "z3_root_of_unity")
THETA_SOLVE_PRESETS = ("poly_shift_S12", "poly_shift_sym")
VERIFY_SUITES = ("--suite", "inner", "--suite", "twisted-2forms")
LIGHT_PRESETS = tuple(p for p in PRESET_IDS if p != "glpq2")

# Calls per round (100, so one round has the items a run needs), by kind.
# Pairs count as two calls.
ROUND = (("verify_pair", 1), ("preset_run_pair", 1), ("glpq2_normalize", 4), ("glpq2_d", 4),
         ("glpq2_commute", 4), ("glpq2_relations", 4), ("file_pair", 5), ("torsion", 8),
         ("curvature", 8), ("metric_check", 8), ("normalize", 9), ("d", 9), ("commute", 7),
         ("relations", 6), ("two_forms", 7), ("theta_solve", 4), ("torsion_conditions", 4))
TINY_ROUND = (("verify_pair", 1), ("preset_run_pair", 1), ("file_pair", 1), ("torsion", 1),
              ("curvature", 1), ("metric_check", 1), ("normalize", 1), ("theta_solve", 1))


class ChildResult(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def child_env(root, hash_seed):
    env = dict(os.environ)
    src = str(Path(root) / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_child(cmd, env, cwd, out_base):
    """Run one child to completion; returns its exit code, output and peak RSS."""
    out_path, err_path = Path(f"{out_base}.out"), Path(f"{out_base}.err")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=cwd)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        return ChildResult(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                           usage.ru_maxrss)
    finally:
        out_path.unlink()
        err_path.unlink()


class Cli:
    name = "cli"
    setup_module = "nccalc.cli"
    presets = PRESET_IDS  # verify --all-presets loads the whole catalog
    in_process = False
    speed_reference = speed.FRESH_PROCESS

    def __init__(self, root, work_dir, hash_seed, tiny=False):
        self.root = Path(root)
        self.work = Path(work_dir)
        self.env = child_env(root, hash_seed)
        self.plan = TINY_ROUND if tiny else ROUND
        self.run_pool = ("poly_shift_S12",) if tiny else PRESET_RUN_POOL
        self.specs = {}
        self.calc_files = {}
        self.conn_files = {}
        self.metric_files = {}
        self._max_rss_kb = 0
        self._traced = False
        self._summaries = []
        self._stats = {}
        self._n = 0

    # -- inputs

    def prepare(self, rng):
        """Write the definition, connection and metric files the calls read."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.specs = {pid: load_preset(pid).spec for pid in PRESET_IDS}
        for pid, spec in self.specs.items():
            path = self.work / f"{pid}.calc"
            path.write_text(serialize_calculus(spec))
            self.calc_files[pid] = path
        for pid in GEOMETRY_PRESETS:
            spec = self.specs[pid]
            self.conn_files[pid] = []
            for k in range(2):
                conn = Connection(spec, torsion_free_connection(spec, rng)[0])
                text = "".join(f"V[{a},{b},{c}] = {v}\n" for (a, b, c), v in sorted(conn.V.items()))
                if load_connection(spec, text).V != conn.V:
                    raise RuntimeError(f"connection for {pid} does not survive the file format")
                path = self.work / f"{pid}.conn{k}"
                path.write_text(text)
                self.conn_files[pid].append(path)
        # Every theta-image scaling of these presets is 1, so a metric with
        # constant entries is invariant and metric-check exits 0.
        for pid in GEOMETRY_PRESETS:
            labels = self.specs[pid].directions.labels
            lines = [f"g[{a},{b}] = {rng.choice([1, 2, -1, 3])}"
                     for a in labels for b in labels if a == b or rng.random() < 0.5]
            path = self.work / f"{pid}.metric"
            path.write_text("\n".join(lines) + "\n")
            self.metric_files[pid] = path

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def round_items(self, rng):
        units = []
        for kind, count in self.plan:
            for _ in range(count):
                units.append(getattr(self, f"_unit_{kind}")(rng))
        rng.shuffle(units)
        return [item for unit in units for item in unit]

    # -- rounds

    def begin_round(self, traced):
        self._traced = traced
        self._summaries = []
        self._stats = {"nonzero_exits": 0, "jobs_mismatch": 0}

    def end_round(self):
        return self._summaries, self._stats

    def peak_rss_kb(self):
        """The largest peak resident set of any call so far."""
        return self._max_rss_kb

    def call(self, argv):
        self._n += 1
        base = self.work / f"call{self._n}"
        if self._traced:
            dump = Path(f"{base}.spans")
            cmd = [sys.executable, str(HERE / "cli_boot.py"), str(dump), *argv]
        else:
            cmd = [sys.executable, "-m", "nccalc.cli", *argv]
        res = run_child(cmd, self.env, self.root, base)
        if self._traced and dump.exists():
            self._summaries.append(Recorder.load_summary(dump))
            dump.unlink()
        self._max_rss_kb = max(self._max_rss_kb, res.maxrss_kb)
        if res.code != 0:
            self._stats["nonzero_exits"] += 1
        return res

    def _single(self, kind, argv):
        def run():
            res = self.call(["--format", "structured", *argv])
            return _verdict(res, argv)
        return [Item(kind, run)]

    # -- call kinds

    def _unit_verify_pair(self, rng):
        argv = ["verify", "--all-presets", *VERIFY_SUITES]
        return self._jobs_pair("verify_all", argv, must_match=True)

    def _unit_preset_run_pair(self, rng):
        pid = rng.choice(self.run_pool)
        # The --jobs 2 path names fixtures differently; counted, not failed.
        return self._jobs_pair("preset_run", ["preset", "run", pid], must_match=False)

    def _jobs_pair(self, kind, argv, must_match):
        first = {}

        def serial():
            res = self.call(["--format", "structured", "--jobs", "1", *argv])
            first["out"] = res.stdout
            return _verdict(res, argv)

        def parallel():
            res = self.call(["--format", "structured", "--jobs", "2", *argv])
            ok, detail = _verdict(res, argv)
            if res.stdout != first.get("out"):
                self._stats["jobs_mismatch"] += 1
                if must_match:
                    return False, f"{' '.join(argv)}: --jobs 2 output differs from --jobs 1"
            return ok, detail

        return [Item(f"{kind}.jobs1", serial), Item(f"{kind}.jobs2", parallel)]

    def _unit_file_pair(self, rng):
        pid = rng.choice(PRESET_IDS)
        query = ["normalize", random_expr(self.specs[pid].pres, rng)]
        first = {}

        def by_preset():
            res = self.call(["--format", "structured", "--preset", pid, *query])
            first["out"] = res.stdout
            return _verdict(res, query)

        def by_file():
            argv = ["--format", "structured", "--file", str(self.calc_files[pid]), *query]
            res = self.call(argv)
            ok, detail = _verdict(res, query)
            if ok and res.stdout != first.get("out"):
                return False, f"{pid} {query}: --file output differs from --preset"
            return ok, detail

        return [Item("file.preset", by_preset), Item("file.load", by_file)]

    def _query(self, kind, pid, rng):
        spec = self.specs[pid]
        head = ["--preset", pid]
        if kind == "normalize":
            return head + ["normalize", random_expr(spec.pres, rng)]
        if kind == "d":
            return head + ["d", "--expr", random_expr(spec.pres, rng)]
        if kind == "commute":
            labels = spec.directions.labels
            thetas = ",".join(rng.choice(labels) for _ in range(rng.randint(1, 2)))
            return head + ["commute", "--expr", random_expr(spec.pres, rng), "--thetas", thetas]
        if kind == "relations":
            return head + ["relations"]
        if kind == "two_forms":
            return head + ["two-forms"]
        if kind == "torsion_conditions":
            return head + ["torsion-conditions"]
        raise ValueError(kind)

    def _one_shot(kind, pool, prefix=""):
        def unit(self, rng):
            return self._single(prefix + kind, self._query(kind, rng.choice(pool), rng))
        return unit

    _unit_normalize = _one_shot("normalize", LIGHT_PRESETS)
    _unit_d = _one_shot("d", LIGHT_PRESETS)
    _unit_commute = _one_shot("commute", LIGHT_PRESETS)
    _unit_relations = _one_shot("relations", LIGHT_PRESETS)
    _unit_two_forms = _one_shot("two_forms", LIGHT_PRESETS)
    _unit_torsion_conditions = _one_shot("torsion_conditions", GEOMETRY_PRESETS)
    _unit_glpq2_normalize = _one_shot("normalize", ("glpq2",), "glpq2.")
    _unit_glpq2_d = _one_shot("d", ("glpq2",), "glpq2.")
    _unit_glpq2_commute = _one_shot("commute", ("glpq2",), "glpq2.")
    _unit_glpq2_relations = _one_shot("relations", ("glpq2",), "glpq2.")
    del _one_shot

    def _unit_theta_solve(self, rng):
        pid = rng.choice(THETA_SOLVE_PRESETS)
        coords = f"x{_signed(rng.randint(-3, 3))}, x^2{_signed(rng.randint(-3, 3))}*x"
        return self._single("theta_solve", ["--preset", pid, "theta-solve", "--coords", coords])

    def _unit_torsion(self, rng):
        pid = rng.choice(GEOMETRY_PRESETS)
        conn = rng.choice(self.conn_files[pid])
        return self._single("torsion", ["--preset", pid, "torsion", "--connection", str(conn)])

    def _unit_curvature(self, rng):
        pid = rng.choice(GEOMETRY_PRESETS)
        conn = rng.choice(self.conn_files[pid])
        theta = rng.choice(self.specs[pid].directions.labels)
        return self._single("curvature", ["--preset", pid, "curvature", "--connection",
                                          str(conn), "--theta", theta])

    def _unit_metric_check(self, rng):
        pid = rng.choice(GEOMETRY_PRESETS)
        return self._single("metric_check", ["--preset", pid, "metric-check", "--metric",
                                             str(self.metric_files[pid])])


def _verdict(res, argv):
    if res.code != EXPECTED_EXIT:
        err = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return False, f"{' '.join(argv)}: exit {res.code} {err}"
    return True, ""


def _signed(c):
    return f" + {c}" if c >= 0 else f" - {-c}"


def random_expr(pres, rng):
    """A small algebra element as text: one or two terms of up to three letters."""
    letters = []
    for g in pres.generators:
        letters.append(g.name)
        if g.invertible:
            letters.append(f"{g.name}^-1")
    out = ""
    for k in range(rng.randint(1, 2)):
        # a leading minus would read as an option, so the first sign is +
        c = rng.choice([1, 2, 3]) if k == 0 else rng.choice([1, 2, 3, -1, -2])
        coeff = str(abs(c))
        if pres.params and rng.random() < 0.3:
            coeff += "*" + rng.choice(pres.params)
        word = "*".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        term = f"{coeff}*{word}"
        out = term if k == 0 else out + (f" + {term}" if c > 0 else f" - {term}")
    return out


def startup_seconds(root, samples=3):
    """Wall time of fresh processes that only import nccalc.cli (median)."""
    env = child_env(root, 0)
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nccalc.cli"], env=env, cwd=root,
                       check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]
