"""Tests for the benchmark's own code.

Run with: python3 -m pytest perfbench -q

Smoke runs use tiny rounds; they check that every metric named in
BENCHMARK.json is reported with its unit, and that a deliberately wrong
reference trips each workload's gate.
"""

import array
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cli_workload  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name, trace=0):
    return run.run_workload(name, seed=3, seconds=0, trace=trace, tiny=True, min_items=1)


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name):
    res = tiny_run(name)
    assert res["correct"], res["failures"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    assert got == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name):
    res = tiny_run(name, trace=1)
    assert res["correct"], res["failures"]
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    assert got == units(SPEC["per_layer"])
    assert [r["traced"] for r in res["rounds"]][:2] == [False, True]


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


def test_wrong_property_expectation_trips_battery_gate(monkeypatch):
    monkeypatch.setattr(workloads, "PROPERTY_EXPECTATION", False)
    res = tiny_run("battery")
    assert not res["correct"] and res["failed"] == res["attempted"]


def test_wrong_determinant_reference_trips_symbolic_gate(monkeypatch):
    closed_form = workloads.vandermonde
    monkeypatch.setattr(workloads, "vandermonde",
                        lambda pres, shifts: closed_form(pres, shifts) + pres.one)
    res = tiny_run("symbolic")
    assert not res["correct"] and res["failed"] == res["attempted"]


def test_wrong_torsion_expectation_trips_geometry_gate(monkeypatch):
    build = workloads.torsion_free_connection

    def lying(spec, rng, perturb=False):
        entries, free = build(spec, rng, perturb)
        return entries, not free

    monkeypatch.setattr(workloads, "torsion_free_connection", lying)
    res = tiny_run("geometry")
    assert not res["correct"] and res["failed"] == res["attempted"]


def test_wrong_exit_code_trips_cli_gate(monkeypatch):
    monkeypatch.setattr(cli_workload, "EXPECTED_EXIT", 1)
    res = tiny_run("cli")
    assert not res["correct"] and res["failed"] == res["attempted"]


def test_item_scales_follow_the_reference_times_around_each_item():
    ref = speed.Reference("test", 0.5, None, 2)
    samples = [1.0, None] * 5 + [2.0, None] * 5
    scales = speed.item_scales(ref, samples)
    assert len(scales) == len(samples)
    assert scales[0] == pytest.approx(0.5 ** speed.SENSITIVITY)
    assert scales[-1] == pytest.approx(0.25 ** speed.SENSITIVITY)
    # An item between two samples takes the same factor as the one before it.
    assert scales[3] == scales[2]
    assert all(a >= b for a, b in zip(scales, scales[1:]))


def test_setup_and_run_report_raw_times_next_to_scaled_ones():
    res = tiny_run("symbolic")
    assert res["speed_reference"] == "in_process"
    assert set(res["raw_times"]) == {"wall_s", "item_p50_ms", "item_p90_ms", "setup_s"}
    assert all(p["raw_s"] > 0 and p["scale"] > 0 for p in res["setup_samples"])


def test_self_time_subtracts_children_and_groups_count_once():
    rec = spans.Recorder()
    names = ["geometry.metric_compatibility", "geometry.metric_invariance_conditions",
             "scalar.Scalar.__mul__"]
    for n in names:
        rec.intern(n)
    # metric_compatibility [0, 10] > metric_invariance_conditions [2, 5] > mul [3, 4]
    rec.name_id = array.array("i", [0, 1, 2, 2])
    rec.parent = array.array("i", [-1, 0, 1, 0])
    rec.start = array.array("d", [0.0, 2.0, 3.0, 6.0])
    rec.end = array.array("d", [10.0, 5.0, 4.0, 7.0])
    s = rec.summary()
    assert s["self_s"]["geometry"] == pytest.approx((10 - 3 - 1) + (3 - 1))
    assert s["self_s"]["scalar"] == pytest.approx(2.0)
    assert s["group_s"]["metric"] == pytest.approx(10.0)
    assert s["calls"]["scalar.Scalar.__mul__"] == 2


def test_install_patches_every_binding_and_uninstall_restores_it():
    import nccalc.cli
    import nccalc.geometry

    original = nccalc.geometry.torsion
    rec = spans.Recorder()
    rec.install()
    try:
        assert nccalc.geometry.torsion is not original
        assert nccalc.cli.torsion is nccalc.geometry.torsion
        assert workloads.torsion is nccalc.geometry.torsion
    finally:
        rec.uninstall()
    assert nccalc.geometry.torsion is original
    assert nccalc.cli.torsion is original and workloads.torsion is original


def test_spans_survive_dump_and_load():
    rec = spans.Recorder()
    rec.install()
    try:
        spec = workloads.load_preset("quantum_plane_a").spec
        workloads.torsion(spec, workloads.Connection(spec, {}))
    finally:
        rec.uninstall()
    run.OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.OUT)) / "spans.bin"
    try:
        rec.dump(path)
        assert spans.Recorder.load_summary(path) == rec.summary()
    finally:
        shutil.rmtree(path.parent)


def test_run_without_sources_fails_without_a_result():
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "battery",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
