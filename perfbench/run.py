"""nccalc benchmark: exact-verification workloads, end to end and per layer.

One workload per run:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 16 --trace 0

Every workload, untraced and traced, with a summary in perfbench/out/:

    python3 perfbench/run.py --all --seed 1

A run repeats rounds (fixed-size batches of seeded items, one client in a
closed loop) until it has measured for --seconds and at least MIN_ITEMS
items.  With --trace 0 it prints the end-to-end metrics; with --trace 1
it alternates untraced and traced rounds and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 when
every item passed its correctness gate, 1 when one failed, and 2 when
the nccalc sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
MIN_ITEMS = 100
SETUP_SAMPLES = 3
# A second seed, never used while tuning, for re-checking a claimed gain.
CHECK_SEED = 7919

E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def hash_seed_for(seed):
    return seed % 2 ** 32


def make_workload(name, seed, tiny=False):
    import workloads

    if name == "battery":
        return workloads.Battery(tiny)
    if name == "symbolic":
        return workloads.Symbolic(tiny)
    if name == "geometry":
        return workloads.Geometry(tiny)
    if name == "cli":
        import cli_workload

        work = OUT / f"work-{os.getpid()}"
        return cli_workload.Cli(ROOT, work, hash_seed_for(seed), tiny)
    raise ValueError(f"unknown workload {name!r}")


def measure_setup(wl, seed, samples=SETUP_SAMPLES):
    """Median cold set-up (import plus preset builds) over fresh processes.

    A fresh-process speed reference timed before and after each sample
    brings it to reference speed.  Returns the median and every sample's
    raw time and scale.
    """
    from cli_workload import child_env

    env = child_env(ROOT, hash_seed_for(seed))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), wl.setup_module, *wl.presets]
    raw = []
    for _ in range(samples):
        before = speed.FRESH_PROCESS.time()
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=True,
                             timeout=120)
        after = speed.FRESH_PROCESS.time()
        raw.append({"raw_s": float(out.stdout.decode().strip().splitlines()[-1]),
                    "scale": speed.scale(speed.FRESH_PROCESS, [before, after])})
    return statistics.median(p["raw_s"] * p["scale"] for p in raw), raw


def run_item(item, rec):
    """Run one item and record its verdict; returns its latency in seconds."""
    ts = time.perf_counter()
    try:
        ok, detail = item.run()
    except Exception as exc:  # an item that raises is a failed item
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - ts
    rec["attempted"] += 1
    if not ok:
        rec["failures"].append(f"{item.kind}: {detail}")
    return latency


def run_rounds(wl, seed, seconds, trace, min_items, warm_up):
    """Run rounds until the time and item budgets are met; returns the raw record.

    With `warm_up`, one untimed round first warms in-process memos, as a
    long session has them; its verdicts count, its times do not.  The
    workload's speed reference (see speed.py) is timed before every item,
    outside the item's time.  A round's wall time is the sum of its items'
    latencies.
    """
    rec = {"rounds": [], "latencies": [], "reference": [], "kinds": [], "failures": [],
           "attempted": 0, "summaries": [], "stats": [], "speed_reference": wl.speed_reference}
    if warm_up:
        for item in wl.round_items(random.Random(f"{wl.name}:{seed}:warm-up")):
            run_item(item, rec)
    t_start = time.perf_counter()
    r = 0
    while True:
        traced = trace and r % 2 == 1
        items = wl.round_items(random.Random(f"{wl.name}:{seed}:{r}"))
        wl.begin_round(traced)
        reference, latencies = [], []
        every = wl.speed_reference.every
        for item in items:
            due = (len(rec["reference"]) + len(reference)) % every == 0
            reference.append(wl.speed_reference.time() if due else None)
            latencies.append(run_item(item, rec))
        summaries, stats = wl.end_round()
        rec["latencies"].extend(latencies)
        rec["reference"].extend(reference)
        rec["kinds"].extend(item.kind for item in items)
        rec["rounds"].append({"traced": traced, "wall_s": sum(latencies), "items": len(items),
                              "reference_s": statistics.median(
                                  t for t in reference if t is not None)})
        if traced:
            rec["summaries"].extend(summaries)
            rec["stats"].append(stats)
        r += 1
        elapsed = time.perf_counter() - t_start
        if trace:
            if elapsed >= seconds and r >= 2:
                break
        elif elapsed >= seconds and len(rec["latencies"]) >= min_items:
            break
    return rec


def scaled_latencies(rec):
    """Every item latency at reference speed, in run order."""
    scales = speed.item_scales(rec["speed_reference"], rec["reference"])
    return [lat * k for lat, k in zip(rec["latencies"], scales)]


def scaled_walls(rec):
    """Each round's wall time at reference speed, in run order."""
    lats, walls = scaled_latencies(rec), []
    for r in rec["rounds"]:
        walls.append(sum(lats[:r["items"]]))
        lats = lats[r["items"]:]
    return walls


def raw_times(rec, setup_samples):
    """The timed end-to-end values before the speed scaling, for the record."""
    deciles = statistics.quantiles(rec["latencies"], n=10, method="inclusive")
    return {"wall_s": statistics.median(r["wall_s"] for r in rec["rounds"]),
            "item_p50_ms": deciles[4] * 1e3, "item_p90_ms": deciles[8] * 1e3,
            "setup_s": statistics.median(p["raw_s"] for p in setup_samples)
            if setup_samples else None}


def end_to_end(wl, rec, setup):
    deciles = statistics.quantiles(scaled_latencies(rec), n=10, method="inclusive")
    values = {"setup_s": setup, "wall_s": statistics.median(scaled_walls(rec)),
              "item_p50_ms": deciles[4] * 1e3, "item_p90_ms": deciles[8] * 1e3,
              "peak_rss_mb": wl.peak_rss_kb() / 1024}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def per_layer(wl, rec, setup_summary):
    import cli_workload
    from spans import layer_metrics, merge_summaries

    n = sum(r["traced"] for r in rec["rounds"])
    parts = [merge_summaries(rec["summaries"], 1.0 / n)]
    combined = merge_summaries(parts + ([setup_summary] if setup_summary else []))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(combined).items()}

    walls = list(zip(scaled_walls(rec), rec["rounds"]))

    def per_round(stat):
        return sum(s.get(stat, 0) for s in rec["stats"]) / n

    extra = {
        "cli.startup_s": (cli_workload.startup_seconds(ROOT), "s"),
        "cli.nonzero_exits": (per_round("nonzero_exits"), "count"),
        "cli.jobs_output_mismatch": (per_round("jobs_mismatch"), "count"),
        "trace.overhead_ratio": (statistics.mean(w for w, r in walls if r["traced"])
                                 / statistics.mean(w for w, r in walls if not r["traced"]),
                                 "ratio"),
    }
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    return metrics


def git_sha(root):
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def run_workload(name, seed, seconds, trace, tiny=False, min_items=MIN_ITEMS):
    """One benchmark run; returns the full result record."""
    wl = make_workload(name, seed, tiny)
    setup, setup_samples, setup_summary = None, [], None
    if not trace:
        setup, setup_samples = measure_setup(wl, seed, 1 if tiny else SETUP_SAMPLES)
    prep_rng = random.Random(f"{name}:{seed}:prepare")
    try:
        if trace and wl.in_process:
            wl.begin_round(True)
            wl.prepare(prep_rng)
            setup_summary = wl.end_round()[0][0]
        else:
            wl.prepare(prep_rng)
        warm = wl.in_process and wl.warm_up and not tiny
        rec = run_rounds(wl, seed, seconds, bool(trace), min_items, warm)
        if trace:
            metrics = per_layer(wl, rec, setup_summary)
        else:
            metrics = end_to_end(wl, rec, setup)
    finally:
        wl.close()
    failed = len(rec["failures"])
    return {
        "workload": name, "why": WHY[name], "seed": seed, "check_seed": CHECK_SEED,
        "seconds": seconds, "trace": int(bool(trace)), "machine": machine(),
        "git_sha": git_sha(ROOT), "child_pythonhashseed": hash_seed_for(seed),
        "speed_reference": wl.speed_reference.name,
        "speed_reference_quiet_s": wl.speed_reference.quiet_s,
        "speed_sensitivity": speed.SENSITIVITY, "raw_times": raw_times(rec, setup_samples),
        "setup_samples": setup_samples, "rounds": rec["rounds"],
        "items_by_kind": by_kind(rec), "fail_ratio": failed / rec["attempted"],
        "failures": rec["failures"][:20],
        "correct": failed == 0, "attempted": rec["attempted"], "failed": failed,
        "metrics": metrics,
    }


def by_kind(rec):
    """Item count and median latency (ms, at reference speed) per item kind."""
    groups = {}
    for kind, lat in zip(rec["kinds"], scaled_latencies(rec)):
        groups.setdefault(kind, []).append(lat)
    return {k: {"items": len(v), "median_ms": statistics.median(v) * 1e3}
            for k, v in sorted(groups.items())}


def print_result(res):
    print(f"# workload {res['workload']} (seed {res['seed']}, trace {res['trace']}): "
          f"{res['why']}")
    print(f"# items {res['attempted']} in {len(res['rounds'])} rounds; fail_ratio "
          f"{res['fail_ratio']:.6g} ({res['failed']}/{res['attempted']}); child "
          f"PYTHONHASHSEED {res['child_pythonhashseed']}; git {res['git_sha']}; "
          f"nproc {res['machine']['nproc']}, Python {res['machine']['python']}")
    for f in res["failures"]:
        print(f"# FAIL {f}")
    for k, m in res["metrics"].items():
        print(f"{res['workload']:9s} {k:28s} {m['value']:14.6f} {m['unit']}")


def write_result(res):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    path.write_text(json.dumps(res, indent=1) + "\n")


def last_line(res):
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": res["metrics"]})


def run_all(seed, seconds):
    """Every workload untraced and traced, each in its own process."""
    summary = {"seed": seed, "check_seed": CHECK_SEED, "seconds": seconds,
               "machine": machine(), "git_sha": git_sha(ROOT), "runs": {}}
    all_ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "error": proc.stderr[-2000:]}
                print(f"# {name} trace {trace}: no result\n{proc.stderr[-2000:]}")
            all_ok &= proc.returncode == 0 and result.get("correct", False)
            summary["runs"][f"{name}.trace{trace}"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"# summary written to {OUT / 'summary.json'}; all correct: {all_ok}")
    return 0 if all_ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, both modes")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nccalc" / "__init__.py").is_file():
        print(f"error: no nccalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("give --workload or --all")
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    write_result(res)
    print_result(res)
    print(last_line(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
