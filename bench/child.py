"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this file as a child process (never two at once), so
every repetition begins from the same allocator, collector and import
state. It prints one JSON object: the host and virtual readings of the
run, the deterministic counts, and — for the traced passes — the folded
profile or the critical-path attribution.

Passes: ``plain`` (nothing attached; the only one end-to-end numbers come
from), ``profile`` (cProfile, one profiler per phase) and ``obs``
(``NimbusCluster(trace=True)`` fed to ``repro.analysis.critical_path``).
"""

import time

T_ENTRY = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.analysis import critical_path  # noqa: E402


def all_counters(cluster) -> Counter:
    """Cluster-wide counters plus every admitted job's own stream."""
    total = Counter(cluster.metrics.counters)
    for record in cluster.jobs.records.values():
        if record.metrics is not None:
            total.update(record.metrics.counters)
    return total


def measure(workload: str, seed: int, quick: bool, mode: str) -> dict:
    profilers = None
    if mode == "profile":
        profilers = {"setup": cProfile.Profile(), "steady": cProfile.Profile()}
        profilers["setup"].enable()
    t_profiled = time.perf_counter()
    run = workloads.BUILDERS[workload](seed, quick, mode == "obs")
    run.setup()
    if profilers:
        profilers["setup"].disable()
        setup_wall = time.perf_counter() - t_profiled
        t_profiled = time.perf_counter()
        profilers["steady"].enable()
    run.steady()
    t_end = time.perf_counter()
    if profilers:
        profilers["steady"].disable()

    cluster, stamp = run.cluster, run.stamp
    counters = all_counters(cluster)
    tasks = counters["tasks_executed"]
    steady_tasks = tasks - stamp["counters"].get("tasks_executed", 0.0)
    virt_steady = cluster.sim.now - stamp["virt"]
    busy = workloads.actor_busy(cluster)
    latencies = run.latencies()
    records = cluster.jobs.records.values()
    waits = [r.start_time - r.submit_time for r in records
             if r.start_time is not None] or [0.0]
    hits, computed = counters["patch_cache_hits"], counters["patches_computed"]
    controller_msgs = (counters["controller.messages_in"]
                       + counters["controller.messages_out"])
    steady_msgs = (counters["controller.steady_messages_in"]
                   + counters["controller.steady_messages_out"])
    out = {
        "workload": workload, "seed": seed, "pass": mode,
        "host": {
            "setup_s": stamp["host"] - T_ENTRY,
            "steady_s": t_end - stamp["host"],
            "total_s": t_end - T_ENTRY,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "jobs": {"attempted": run.jobs, "finished": len(latencies)},
        "tasks_executed": tasks,
        "steady_tasks": steady_tasks,
        "events_run": cluster.sim.events_run,
        "digest": run.digest(),
        "virt": {
            "virt_steady_s": virt_steady,
            "virt_tasks_per_s": steady_tasks / virt_steady,
            "virt_job_p50_s": workloads.percentile(latencies, 0.5),
            "virt_job_p90_s": workloads.percentile(latencies, 0.9),
        },
        "counts": {
            "virt.setup_s": stamp["virt"],
            "sim.engine.events_per_task":
                (cluster.sim.events_run - stamp["events"]) / steady_tasks,
            "nimbus.controller.msgs_per_task": controller_msgs / tasks,
            "nimbus.controller.steady_msgs_per_task": steady_msgs / tasks,
            "nimbus.controller.busy_pct": 100.0 * (
                busy["controller"] - stamp["busy"]["controller"]) / virt_steady,
            "nimbus.worker.busy_pct": 100.0 * (
                busy["worker_mean"] - stamp["busy"]["worker_mean"]) / virt_steady,
            "nimbus.protocol.retries": counters["protocol.retries"],
            "core.validation.auto": counters["auto_validations"],
            "core.validation.full": counters["full_validations"],
            "core.patching.computed": computed,
            "core.patching.hit_ratio":
                hits / (hits + computed) if hits + computed else 0.0,
            "core.edits.applied": counters["edits_applied"],
            "core.worker_template.installed":
                counters["worker_templates_installed"],
            "core.worker_template.regenerations":
                counters["worker_template_regenerations"],
            "core.controller_template.instantiations":
                counters["template_instantiations"],
            "sched.grants": counters["self_schedule_grants"],
            "sched.stalls": counters["self_schedule.stalls"],
            "nimbus.multijob.admitted": counters["jobs_admitted"],
            "nimbus.multijob.queued": counters["jobs_queued"],
            "nimbus.multijob.rejected": counters["jobs_rejected"],
            "nimbus.multijob.queue_wait_p90_s":
                workloads.percentile(waits, 0.9),
        },
    }
    if profilers:
        out["profile"] = {
            "setup_wall_s": setup_wall,
            "steady_wall_s": t_end - t_profiled,
            "setup": layers.fold(profilers["setup"].getstats()),
            "steady": layers.fold(profilers["steady"].getstats()),
        }
    if mode == "obs":
        report = critical_path(cluster.tracer)
        out["critical_path"] = {
            "total_s": report.total,
            "coverage": report.coverage,
            "steps": report.steps,
            "truncated": report.truncated,
            "segments_s": dict(report.segments),
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="mode", default="plain",
                        choices=("plain", "profile", "obs"))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    print(json.dumps(measure(args.workload, args.seed, args.quick, args.mode)))


if __name__ == "__main__":
    main()
