"""Span recorder that attributes benchmark time to the layers of nccalc.

The recorder wraps public entry points of each module (the layers) from
outside the package: class attributes and module attributes are replaced
by wrappers while tracing is installed and restored afterwards.  Every
call becomes a span (name, start, end, parent); spans stay in memory, in
flat arrays, until the benchmark summarises them or writes them out.

A layer's self time is the duration of its spans minus the part covered
by their child spans.  Counts are taken at the same boundaries: the
denominator shape of every scalar result, the words handed to the
rewrite normal form and how much its memo grew, and the bytes of text
given to the file loaders.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import threading
import time

LAYERS = ("scalar", "algebra", "calculus", "linalg", "geometry", "frame",
          "presets", "files", "parsing", "suites", "cli")

_SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
               "substitute")
_FORM_OPS = ("__add__", "__sub__", "__neg__", "mul_left")

# (layer, module, class or None, attribute names).  Missing names are
# skipped, so a refactor that removes one only drops its span.
ENTRY_POINTS = (
    ("scalar", "nccalc.scalar", "Scalar", _SCALAR_OPS),
    ("scalar", "nccalc.scalar", None, ("parse_scalar",)),
    ("algebra", "nccalc.algebra", "NCPoly",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
      "__pow__", "substitute_params")),
    ("algebra", "nccalc.algebra", "Presentation", ("poly", "parse", "is_commutative")),
    ("algebra", "nccalc.algebra", "AlgebraMorphism", ("apply", "then")),
    ("algebra", "nccalc.algebra", None,
     ("verify_morphism", "check_local_confluence", "unit_inverse", "invert_element",
      "tensor_product", "normal_words", "basis_independence_probe",
      "identity_morphism")),
    ("calculus", "nccalc.calculus", "CalculusSpec",
     ("e", "phi_word", "phi_word_inv", "theta_scale")),
    ("calculus", "nccalc.calculus", "GradedForm",
     ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "mul_left",
      "mul_right", "wedge", "__pow__")),
    ("calculus", "nccalc.calculus", "TwoFormStructure",
     ("reduce_word", "delta_theta", "zeta_form", "describe")),
    ("calculus", "nccalc.calculus", None,
     ("e_s", "differential", "d_form", "delta", "wedge", "graded_commutator",
      "move_left", "move_right", "vartheta", "two_form_structure",
      "verify_twisted_two_forms", "verify_inner_identities", "check_differentiability",
      "solve_theta_in_differentials", "theta_solution_form", "parse_form", "constants",
      "is_central_one_form")),
    ("linalg", "nccalc.linalg", None,
     ("det_cofactor", "adjugate", "commutative_inverse", "nc_left_inverse",
      "solve_linear", "nullspace_vector")),
    ("geometry", "nccalc.geometry", "TensorA", _FORM_OPS),
    ("geometry", "nccalc.geometry", "WedgeTensor", _FORM_OPS),
    ("geometry", "nccalc.geometry", "LTensor", _FORM_OPS + ("tensor", "to_plain")),
    ("geometry", "nccalc.geometry", "TorsionConditions", ("check",)),
    ("geometry", "nccalc.geometry", None,
     ("torsion", "torsion_of_form", "curvature", "nabla_one_form", "nabla_on_tensor",
      "transport_theta", "transport_one_form", "transport_ltensor", "wedge_projection",
      "torsion_free_conditions", "tensor_L", "metric_invariance_conditions",
      "metric_compatibility", "levi_civita_check", "invariance_scaling_targets",
      "invariant_monomial_scan")),
    ("frame", "nccalc.frame", "FrameForm", _FORM_OPS + ("mul_right",)),
    ("frame", "nccalc.frame", "ThetaFrame",
     ("__init__", "move_word", "d_word", "d_poly", "commutator", "verify",
      "apply_morphism", "check_morphism_preserves_frame", "form", "theta")),
    ("presets", "nccalc.presets.catalog", None, ("load_preset",)),
    ("presets", "nccalc.presets.base", "PresetBundle", ("run_fixtures",)),
    ("files", "nccalc.files", None,
     ("load_calculus", "load_presentation", "load_connection", "load_metric",
      "parse_sections", "serialize_calculus", "serialize_presentation")),
    ("parsing", "nccalc.parsing", None,
     ("tokenize", "parse_with_context", "parse_scalar_expr")),
    ("suites", "nccalc.suites", None,
     ("property_suite", "random_poly", "suite_inner", "suite_leibniz",
      "suite_graded_leibniz", "suite_d2", "suite_differentiability",
      "suite_twisted_two_forms")),
)

# Span groups whose inclusive time is reported (nested members count once).
GROUPS = {
    "confluence": ("algebra.check_local_confluence",),
    "two_forms": ("calculus.two_form_structure", "calculus.verify_twisted_two_forms"),
    "solve": ("calculus.solve_theta_in_differentials",),
    "metric": ("geometry.metric_invariance_conditions", "geometry.metric_compatibility"),
    "build": ("presets.load_preset",),
    "fixtures": ("presets.PresetBundle.run_fixtures",),
}

_FILE_LOADERS = {"files.load_calculus": 0, "files.load_presentation": 0,
                 "files.load_connection": 1, "files.load_metric": 1}


class Recorder:
    """Spans in flat arrays plus counters, filled by the installed wrappers."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._nf_base = {}
        self._patched = []

    # -- recording

    def intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, nid):
        stack = self._stack()
        with self._lock:
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
        stack.append(sid)
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    def count(self, key, n=1):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def _in_normalization(self):
        return getattr(self._local, "nf_depth", 0) > 0

    def _nf_enter(self, pres):
        self._local.nf_depth = getattr(self._local, "nf_depth", 0) + 1
        if id(pres) not in self._nf_base:
            self._nf_base[id(pres)] = (pres, _memo_size(pres))

    def _nf_exit(self):
        self._local.nf_depth -= 1

    def nf_growth(self):
        """Normal-form memo entries added since each presentation was first seen."""
        return sum(_memo_size(p) - base for p, base in self._nf_base.values())

    # -- wrappers

    def _wrap(self, name, fn):
        nid = self.intern(name)
        rec = self
        hook = _result_hook(name)
        pre = _pre_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(rec, args) if pre else None
            sid = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(sid)
                if state is not None:
                    rec._nf_exit()
            if hook is not None:
                hook(rec, args, result)
            return result

        return wrapper

    def install(self):
        """Patch every entry point; the nccalc modules must be imported."""
        if self._patched:
            raise RuntimeError("tracing already installed")
        replaced = {}
        for layer, modname, clsname, attrs in ENTRY_POINTS:
            mod = importlib.import_module(modname)
            owner = getattr(mod, clsname, None) if clsname else mod
            if owner is None:
                continue
            for attr in attrs:
                raw = owner.__dict__.get(attr) if clsname else getattr(owner, attr, None)
                if raw is None:
                    continue
                name = f"{layer}.{clsname}.{attr}" if clsname else f"{layer}.{attr}"
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                elif callable(raw):
                    new = self._wrap(name, raw)
                    if not clsname:
                        replaced[id(raw)] = (raw, new)
                else:
                    continue
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, new)
        # functions are also bound by name in every module that imported them
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched = []

    # -- output

    def dump(self, path):
        """Write the spans and counters (header line, then raw arrays)."""
        header = {"names": self.names, "counters": self.counters,
                  "nf_growth": self.nf_growth(), "n": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)

    @staticmethod
    def load_summary(path):
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["n"]
            arrays = []
            for code in ("i", "i", "d", "d"):
                arr = array.array(code)
                arr.fromfile(fh, n)
                arrays.append(arr)
        rec = Recorder()
        rec.names = header["names"]
        rec.name_id, rec.parent, rec.start, rec.end = arrays
        rec.counters = header["counters"]
        summary = rec.summary()
        summary["counters"]["nf_growth"] = header["nf_growth"]
        return summary

    def summary(self):
        """Aggregate the spans: calls per name, self time per layer, group times."""
        n = len(self.start)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        calls = {}
        self_s = {layer: 0.0 for layer in LAYERS}
        member = {}
        for g, members in GROUPS.items():
            for m in members:
                member[m] = g
        group_s = {g: 0.0 for g in GROUPS}
        # groups open around each span; parents precede children, so one pass
        enclosing = [frozenset()] * n
        for i in range(n):
            name = names[self.name_id[i]]
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + dur[i] - covered[i]
            p = self.parent[i]
            outer = enclosing[p] if p >= 0 else frozenset()
            g = member.get(name)
            if g is not None and g not in outer:
                group_s[g] += dur[i]
                outer = outer | {g}
            enclosing[i] = outer
        counters = dict(self.counters)
        counters["nf_growth"] = self.nf_growth()
        return {"calls": calls, "self_s": self_s, "group_s": group_s,
                "counters": counters}


def _memo_size(pres):
    memo = getattr(pres, "_nf", None)
    return len(memo) if isinstance(memo, dict) else 0


def _den_shape(rec, args, result):
    den = getattr(result, "den", None)
    if not isinstance(den, dict):
        return
    if len(den) > 1:
        rec.count("den_multiterm")
    elif any(any(e) for e in den):
        rec.count("den_monomial")
    else:
        rec.count("den_const")


def _nf_words_mul(rec, args):
    a, b = args[0], args[1] if len(args) > 1 else None
    terms = getattr(b, "terms", None)
    if not isinstance(terms, dict) or rec._in_normalization():
        return None
    rec.count("nf_words", len(a.terms) * len(terms))
    rec._nf_enter(a.pres)
    return True


def _nf_words_poly(rec, args):
    pres, terms = args[0], args[1] if len(args) > 1 else None
    if not isinstance(terms, dict) or rec._in_normalization():
        return None
    rec.count("nf_words", len(terms))
    rec._nf_enter(pres)
    return True


def _bytes_parsed(index):
    def hook(rec, args):
        if len(args) > index and isinstance(args[index], str):
            rec.count("bytes_parsed", len(args[index].encode()))
        return None
    return hook


def _result_hook(name):
    if name.startswith("scalar.Scalar."):
        return _den_shape
    return None


def _pre_hook(name):
    if name in ("algebra.NCPoly.__mul__", "algebra.NCPoly.__rmul__"):
        return _nf_words_mul
    if name == "algebra.Presentation.poly":
        return _nf_words_poly
    if name in _FILE_LOADERS:
        return _bytes_parsed(_FILE_LOADERS[name])
    return None


def merge_summaries(parts, scale=1.0):
    """Sum summaries, multiplying each value by `scale`."""
    out = {"calls": {}, "self_s": {}, "group_s": {}, "counters": {}}
    for part in parts:
        for key in out:
            for k, v in part[key].items():
                out[key][k] = out[key].get(k, 0) + v * scale
    return out


def layer_metrics(summary):
    """The per-layer metrics, by name, as (value, unit)."""
    calls = summary["calls"]
    selfs = summary["self_s"]
    grp = summary["group_s"]
    cnt = summary["counters"]

    def ncalls(*names):
        return sum(calls.get(n, 0) for n in names)

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    ops = layer_calls("scalar.Scalar")
    m = {
        "scalar.ops": (ops, "count"),
        "scalar.self_s": (selfs.get("scalar", 0.0), "s"),
        "scalar.den_const_ratio": (ratio(cnt.get("den_const", 0), ops), "ratio"),
        "scalar.den_monomial_ratio": (ratio(cnt.get("den_monomial", 0), ops), "ratio"),
        "scalar.den_multiterm_ratio": (ratio(cnt.get("den_multiterm", 0), ops), "ratio"),
        "algebra.mul_calls": (ncalls("algebra.NCPoly.__mul__", "algebra.NCPoly.__rmul__"),
                              "count"),
        "algebra.apply_calls": (ncalls("algebra.AlgebraMorphism.apply"), "count"),
        "algebra.nf_miss_ratio": (ratio(cnt.get("nf_growth", 0), cnt.get("nf_words", 0)),
                                  "ratio"),
        "algebra.self_s": (selfs.get("algebra", 0.0), "s"),
        "algebra.confluence_s": (grp.get("confluence", 0.0), "s"),
        "calculus.e_calls": (ncalls("calculus.CalculusSpec.e", "calculus.e_s"), "count"),
        "calculus.d_calls": (ncalls("calculus.differential", "calculus.d_form"), "count"),
        "calculus.delta_calls": (ncalls("calculus.delta"), "count"),
        "calculus.wedge_calls": (ncalls("calculus.GradedForm.wedge", "calculus.wedge"),
                                 "count"),
        "calculus.two_forms_s": (grp.get("two_forms", 0.0), "s"),
        "calculus.self_s": (selfs.get("calculus", 0.0), "s"),
        "calculus.solve_s": (grp.get("solve", 0.0), "s"),
        "linalg.calls": (layer_calls("linalg"), "count"),
        "linalg.self_s": (selfs.get("linalg", 0.0), "s"),
        "geometry.torsion_calls": (ncalls("geometry.torsion", "geometry.torsion_of_form"),
                                   "count"),
        "geometry.curvature_calls": (ncalls("geometry.curvature"), "count"),
        "geometry.tensor_L_calls": (ncalls("geometry.tensor_L", "geometry.LTensor.tensor"),
                                    "count"),
        "geometry.metric_s": (grp.get("metric", 0.0), "s"),
        "geometry.self_s": (selfs.get("geometry", 0.0), "s"),
        "frame.calls": (layer_calls("frame"), "count"),
        "frame.self_s": (selfs.get("frame", 0.0), "s"),
        "presets.build_s": (grp.get("build", 0.0), "s"),
        "presets.fixtures_s": (grp.get("fixtures", 0.0), "s"),
        "files.self_s": (selfs.get("files", 0.0), "s"),
        "files.bytes_parsed": (cnt.get("bytes_parsed", 0), "bytes"),
        "parsing.self_s": (selfs.get("parsing", 0.0), "s"),
        "suites.self_s": (selfs.get("suites", 0.0), "s"),
        "cli.calls": (ncalls("cli.main"), "count"),
    }
    return m
