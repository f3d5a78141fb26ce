#!/usr/bin/env python3
"""The repo's benchmark of record: five workloads, two clocks, one ledger.

    python3 bench/run.py --workload lr_steady --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload lr_steady --seed 0 --trace 1
    python3 bench/run.py --out A.json            # every workload, untraced
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --pin --seed 2          # add a seed to expected.json

``--trace 0`` measures the end-to-end metrics: repetitions of the workload,
each a fresh child interpreter (``child.py``), one after another, for about
``--seconds`` seconds and never fewer than three; host-clock metrics are
the median over repetitions, virtual-clock metrics must be identical in
every repetition. ``--trace 1`` measures the per-layer metrics from three
passes (plain, cProfile, obs trace) and writes the full ledger to
``bench/out/trace_<workload>.json``. Either way every metric is printed by
name with its unit, outputs are checked against ``expected.json``, and the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

See ``bench/README.md`` for the metric glossary and the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import metrics as M
from layers import LAYERS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("lr_steady", "lr_scaleout", "lr_migrate", "water_nested",
             "serve_mix")
DEFAULT_SECONDS = 20
MIN_REPS = 3
#: three repetitions that all hang must still end inside the 180 s a run may take
REP_TIMEOUT_S = 50
#: per-seed pins in expected.json are compared to this tolerance, so a libm
#: that differs in the last place does not read as a wrong result
PIN_REL_TOL = 1e-9


class RepFailed(Exception):
    """A child crashed, timed out or printed no result."""


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """The parent's environment without anything that steers ``repro``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, mode: str, quick: bool) -> Dict[str, Any]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
           "--workload", workload, "--seed", str(seed), "--pass", mode]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                              capture_output=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{mode} pass timed out after {REP_TIMEOUT_S}s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RepFailed(f"{mode} pass exited {proc.returncode}: {tail[0]}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise RepFailed(f"{mode} pass printed no result")


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------
def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def pinned_values(rep: Dict[str, Any]) -> Dict[str, float]:
    """What expected.json pins per seed: the deterministic readings."""
    return {"events_run": rep["events_run"], **rep["virt"]}


def deviations(rep: Dict[str, Any], pins: Optional[Dict[str, Any]],
               seed: int) -> List[str]:
    """Everything about one repetition's outputs that is not as pinned."""
    found = []
    jobs = rep["jobs"]
    if jobs["finished"] != jobs["attempted"]:
        found.append(f"{jobs['attempted'] - jobs['finished']} of "
                     f"{jobs['attempted']} jobs rejected or unfinished")
    if pins is None:
        return found + ["expected.json has no entry for this workload"]
    for key in ("digest", "tasks_executed"):
        if rep[key] != pins[key]:
            found.append(f"{key} {rep[key]!r} != expected {pins[key]!r}")
    for name, want in pins["seeds"].get(str(seed), {}).items():
        got = pinned_values(rep)[name]
        if not math.isclose(got, want, rel_tol=PIN_REL_TOL):
            found.append(f"{name} {got!r} != expected {want!r} (seed {seed})")
    return found


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------
def summarize(values: List[float], metric: M.Metric) -> Dict[str, Any]:
    """Median, quartiles, min and count of one metric's repetitions.

    ``unresolved`` marks a metric whose repetitions spread (q3 - q1, as a
    share of the median) wider than its bound: a difference of that size
    between two runs says nothing.
    """
    median = statistics.median(values)
    q1, _q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (median,) * 3)
    return {
        "value": median, "unit": metric.unit, "q1": q1, "q3": q3,
        "min": min(values), "n": len(values),
        "unresolved": (q3 - q1) > metric.bound * abs(median),
    }


def run_untraced(workload: str, seed: int, quick: bool, seconds: float,
                 fixed_reps: Optional[int], pins) -> Dict[str, Any]:
    deadline = time.perf_counter() + seconds
    reps: List[Dict[str, Any]] = []
    notes: List[str] = []
    failed = crashed = 0
    while True:
        began = time.perf_counter()
        try:
            rep = run_child(workload, seed, "plain", quick)
        except RepFailed as exc:
            crashed += 1
            notes.append(f"rep {len(reps) + crashed}: {exc}")
        else:
            found = deviations(rep, pins, seed)
            if reps and pinned_values(rep) != pinned_values(reps[0]):
                found.append("virtual results differ from the first rep")
            if found:
                failed += rep["jobs"]["attempted"]
                notes += [f"rep {len(reps) + crashed + 1}: {f}" for f in found]
            reps.append(rep)
        done = len(reps) + crashed
        took = time.perf_counter() - began
        if fixed_reps is not None:
            if done >= fixed_reps:
                break
        elif done >= MIN_REPS and time.perf_counter() + took > deadline:
            break
    if not reps:
        raise RepFailed(f"{workload}: no repetition completed: {notes}")
    jobs_per_rep = reps[0]["jobs"]["attempted"]
    per_rep = {
        "setup_s": [r["host"]["setup_s"] for r in reps],
        "host_us_per_task": [1e6 * r["host"]["steady_s"] / r["steady_tasks"]
                             for r in reps],
        "peak_rss_mb": [r["host"]["peak_rss_mb"] for r in reps],
    }
    for name in reps[0]["virt"]:
        per_rep[name] = [reps[0]["virt"][name]]
    return {
        "seed": seed, "correct": failed + crashed == 0,
        "attempted": jobs_per_rep * (len(reps) + crashed),
        "failed": failed + jobs_per_rep * crashed,
        "notes": notes, "reps": len(reps),
        "metrics": {m.name: summarize(per_rep[m.name], m)
                    for m in M.END_TO_END},
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------
def run_traced(workload: str, seed: int, quick: bool, pins) -> Dict[str, Any]:
    passes = {mode: run_child(workload, seed, mode, quick)
              for mode in ("plain", "profile", "obs")}
    plain, profiled, obs = passes["plain"], passes["profile"], passes["obs"]
    notes = deviations(plain, pins, seed)
    for mode in ("profile", "obs"):
        for key in ("digest", "tasks_executed", "events_run"):
            if passes[mode][key] != plain[key]:
                notes.append(f"{mode} pass changed {key}: "
                             f"{passes[mode][key]!r} != {plain[key]!r}")
    tasks = plain["steady_tasks"]
    profile = profiled["profile"]
    setup, steady = profile["setup"], profile["steady"]
    values: Dict[str, float] = dict(plain["counts"])
    for layer in LAYERS:
        values[f"{layer}.self_us_per_task"] = (
            1e6 * steady["layers"][layer]["self_s"] / tasks)
        values[f"{layer}.setup_self_s"] = setup["layers"][layer]["self_s"]
        values[f"{layer}.calls_per_task"] = (
            steady["layers"][layer]["calls"] / tasks)
    calls = steady["boundary_calls"]
    values["python.calls_per_task"] = steady["calls"] / tasks
    values["sim.network.transmits_per_task"] = (
        calls["sim/network.py:Network.transmit"] / tasks)
    for actor, boundary in (
            ("controller", "nimbus/controller.py:Controller.handle"),
            ("worker", "nimbus/worker.py:Worker.handle"),
            ("shard", "nimbus/shard.py:ControllerShard.handle")):
        values[f"nimbus.{actor}.handled_per_task"] = calls[boundary] / tasks
    values["core.compiled.plans_compiled"] = sum(
        phase["boundary_calls"]["core/compiled.py:compile_plan"]
        for phase in (setup, steady))
    path = obs["critical_path"]
    for bucket, spent in path["segments_s"].items():
        values[f"virt.{bucket}_pct"] = 100.0 * spent / path["total_s"]
    values["virt.critical_path_coverage_pct"] = 100.0 * path["coverage"]
    values["bench.profile_coverage_pct"] = 100.0 * (
        (setup["self_s"] + steady["self_s"])
        / (profile["setup_wall_s"] + profile["steady_wall_s"]))
    values["bench.profile_overhead_x"] = (
        profiled["host"]["total_s"] / plain["host"]["total_s"])
    values["bench.obs_trace_overhead_x"] = (
        obs["host"]["total_s"] / plain["host"]["total_s"])

    os.makedirs(OUT_DIR, exist_ok=True)
    suffix = "_quick" if quick else ""
    with open(os.path.join(OUT_DIR, f"trace_{workload}{suffix}.json"),
              "w") as fh:
        json.dump({"workload": workload, "seed": seed, "quick": quick,
                   "machine": machine_note(), "metrics": values,
                   "passes": passes}, fh, indent=1, sort_keys=True)
    jobs = plain["jobs"]["attempted"]
    return {
        "seed": seed, "correct": not notes, "attempted": jobs,
        "failed": jobs if notes else 0, "notes": notes,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in M.PER_LAYER},
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def machine_note() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def print_result(workload: str, section: str, result: Dict[str, Any]) -> None:
    reps = f", {result['reps']} reps" if "reps" in result else ""
    print(f"\n{workload} (seed {result['seed']}, {section}{reps}): "
          f"attempted {result['attempted']}, failed {result['failed']}")
    for note in result["notes"]:
        print(f"  FAILED {note}", file=sys.stderr)
    width = max(len(name) for name in result["metrics"])
    for name, row in result["metrics"].items():
        metric = M.BY_NAME[name]
        line = (f"  {name:<{width}}  {row['value']:>14.6g} {row['unit']:<5} "
                f"[{metric.clock}]")
        if "n" in row and row["n"] > 1:
            line += (f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
                     f"min {row['min']:.6g}  n {row['n']}")
            if row["unresolved"]:
                line += f"  UNRESOLVED (spread > bound {metric.bound:g})"
        print(line)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in result["metrics"].items()},
    }), flush=True)


def save(path: str, workload: str, section: str, quick: bool,
         result: Dict[str, Any]) -> None:
    """Merge one workload's result into a results file for ``--compare``."""
    doc: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    if (doc.get("seed"), doc.get("quick")) != (result["seed"], quick):
        doc = {"seed": result["seed"], "quick": quick, "workloads": {}}
    doc["machine"] = machine_note()
    doc["workloads"].setdefault(workload, {})[section] = result
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------
def worsening(metric: M.Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == 0 else math.inf
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    same_seed = (a["seed"], a["quick"]) == (b["seed"], b["quick"])
    print(f"A = {path_a} (seed {a['seed']})   B = {path_b} (seed {b['seed']})")
    if not same_seed:
        print("seeds differ: virtual metrics are held to their declared "
              "bound, not to the same-seed tolerance")
    regressed = 0
    for workload in WORKLOADS:
        for section in ("end_to_end", "per_layer"):
            ra = a["workloads"].get(workload, {}).get(section)
            rb = b["workloads"].get(workload, {}).get(section)
            if ra is None or rb is None:
                continue
            print(f"\n{workload} / {section}")
            if rb["failed"] > ra["failed"]:
                regressed += 1
                print(f"  failed operations {ra['failed']} -> {rb['failed']}"
                      f"  regressed")
            width = max(len(name) for name in ra["metrics"])
            for name, row_a in ra["metrics"].items():
                row_b = rb["metrics"].get(name)
                if row_b is None:
                    continue
                metric = M.BY_NAME[name]
                worse = worsening(metric, row_a["value"], row_b["value"])
                bound = metric.bound
                if bound is not None and metric.clock == "virtual" and same_seed:
                    bound = M.SAME_SEED_VIRTUAL_BOUND
                if bound is None:
                    verdict, shown = "", "-"
                elif worse > bound:
                    verdict, shown = "regressed", f"{bound:g}"
                    regressed += 1
                elif row_a.get("unresolved") or row_b.get("unresolved"):
                    verdict, shown = "unresolved", f"{bound:g}"
                else:
                    verdict, shown = "ok", f"{bound:g}"
                if bound is None and worse == 0:
                    continue  # unchanged layer rows would bury the changed
                print(f"  {name:<{width}}  {row_a['value']:>13.6g} -> "
                      f"{row_b['value']:>13.6g} {metric.unit:<5} "
                      f"worse by {worse:+8.2%}  bound {shown:<6} {verdict}")
    print(f"\n{regressed} regressed")
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# --pin
# ---------------------------------------------------------------------------
def pin(workloads: List[str], seed: int) -> None:
    """Record one seed's outputs, at both scales, in expected.json."""
    expected = load_expected() if os.path.exists(EXPECTED_PATH) else {}
    for workload in workloads:
        for scale in ("full", "quick"):
            rep = run_child(workload, seed, "plain", scale == "quick")
            pins = expected.setdefault(workload, {}).setdefault(
                scale, {"digest": rep["digest"],
                        "tasks_executed": rep["tasks_executed"], "seeds": {}})
            found = deviations(rep, {**pins, "seeds": {}}, seed)
            if found:
                raise SystemExit(f"{workload}/{scale} seed {seed} disagrees "
                                 f"with the seeds already pinned: {found}")
            pins["seeds"][str(seed)] = pinned_values(rep)
            print(f"pinned {workload}/{scale} seed {seed}")
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all five in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one workload's untraced run measures")
    parser.add_argument("--reps", type=int,
                        help="exactly this many repetitions, whatever "
                             "--seconds says")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="small configurations (bench/tests)")
    parser.add_argument("--out", metavar="FILE",
                        help="merge results into FILE for --compare")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--pin", action="store_true",
                        help="write --seed's outputs into expected.json")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.pin:
        pin(workloads, args.seed)
        return 0

    expected = load_expected()
    scale = "quick" if args.quick else "full"
    section = "per_layer" if args.trace else "end_to_end"
    all_correct = True
    for workload in workloads:
        pins = expected.get(workload, {}).get(scale)
        try:
            if args.trace:
                result = run_traced(workload, args.seed, args.quick, pins)
            else:
                result = run_untraced(workload, args.seed, args.quick,
                                      args.seconds, args.reps, pins)
        except RepFailed as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        print_result(workload, section, result)
        if args.out:
            save(args.out, workload, section, args.quick, result)
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
