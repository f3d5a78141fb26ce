"""Scale-step benchmark: time-to-stable after a scripted demand step.

The elastic autoscaler (DESIGN.md §15) is a reconciliation loop: desired
worker count from the load EWMA vs the actual live set, every interval.
This workload measures the loop end to end: a fault-free probe run fixes
the virtual time at which iteration ``step_iteration`` completes, the
measured run injects a scripted ``demand_step`` (every worker's task
durations scale by ``step``) exactly there with the autoscaler on, and
the report records how long reconciliation took to go quiet — provision,
cold start, spread through the template machinery (edits or reinstall,
never a job restart), and for downward steps the DRAINING drain.

A fixed-size control run with the same step pins correctness: the
autoscaled run must execute exactly the same task count and produce
bit-identical computed values (no lost or duplicated completions).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..apps.lr import LRApp, LRSpec
from ..chaos import FaultPlan
from ..nimbus.cluster import NimbusCluster
from .rebalance_bench import BLOCK_ID, BYTES_PER_PARTITION, _iteration_ends


def build_scale_step(
    num_workers: int,
    iterations: int,
    seed: int = 0,
    partitions_per_worker: int = 4,
    step: float = 2.0,
    step_at: Optional[float] = None,
    autoscale: bool = False,
    interval: float = 0.25,
    cold_start: float = 1.0,
    trace: Optional[bool] = False,
    mode: str = "centralized",
    shards: Optional[int] = None,
):
    """Wire the scale-step LR cluster (no step when ``step_at`` is None)."""
    spec = LRSpec(
        num_workers=num_workers,
        data_bytes=BYTES_PER_PARTITION * num_workers * partitions_per_worker,
        partitions_per_worker=partitions_per_worker,
        iterations=iterations,
    )
    app = LRApp(spec)
    plan = None
    if step_at is not None:
        plan = FaultPlan(seed).demand_step(step_at, step)
    cluster = NimbusCluster(
        num_workers, app.program(blocking=False), registry=app.registry,
        seed=seed, chaos_plan=plan, autoscale=autoscale,
        autoscale_interval=interval, autoscale_cold_start=cold_start,
        trace=trace, mode=mode, shards=shards,
    )
    return app, cluster


def _values_digest(cluster) -> str:
    """sha256 over the job-0 results history — placement-independent."""
    import hashlib

    ctx = cluster.controller.jobs[0]
    h = hashlib.sha256()
    for block_id, results in ctx.results_history:
        h.update(repr((block_id, sorted(results.items()))).encode())
    return h.hexdigest()


def run_scale_step(
    num_workers: int = 16,
    iterations: int = 40,
    seed: int = 0,
    partitions_per_worker: int = 4,
    step: float = 2.0,
    step_iteration: int = 12,
    skip: int = 4,
    window: int = 4,
    interval: Optional[float] = None,
    cold_start: Optional[float] = None,
    stable_ticks_bound: int = 120,
    control: bool = True,
    mode: str = "centralized",
    shards: Optional[int] = None,
) -> Dict:
    """Run the scale-step workload and report reconciliation statistics.

    ``interval`` defaults to the probe run's pre-step mean iteration
    time — reconciliation paced to the workload's own cadence, exactly
    as an operator would tune it — and ``cold_start`` to four intervals.
    Both come from the deterministic probe, so the measured run stays
    reproducible per seed.

    ``time_to_stable`` is the virtual time from the demand step to the
    autoscaler's *last* decision — after it, the loop observed only
    in-band utilization for the rest of the run. ``converged`` requires
    the loop to go quiet within ``stable_ticks_bound`` reconciliation
    intervals of the step and the driver program to finish. With
    ``control=True`` a fixed-size run with the identical step pins
    zero-loss: equal executed-task counts and an identical results
    digest.
    """
    # fault-free probe: fixes where iteration `step_iteration` completes
    _, probe = build_scale_step(
        num_workers, iterations, seed=seed,
        partitions_per_worker=partitions_per_worker)
    probe.run_until_finished()
    probe_ends = _iteration_ends(probe.metrics)
    if len(probe_ends) < iterations or step_iteration >= iterations - window:
        raise ValueError("step_iteration leaves no room to measure recovery")
    step_at = probe_ends[step_iteration - 1]
    pre = ((probe_ends[step_iteration - 1] - probe_ends[skip - 1])
           / (step_iteration - skip))
    if interval is None:
        interval = pre
    if cold_start is None:
        cold_start = 4 * interval

    _, cluster = build_scale_step(
        num_workers, iterations, seed=seed,
        partitions_per_worker=partitions_per_worker, step=step,
        step_at=step_at, autoscale=True, interval=interval,
        cold_start=cold_start, mode=mode, shards=shards)
    cluster.run_until_finished()
    ends = _iteration_ends(cluster.metrics)
    spacing = [b - a for a, b in zip(ends, ends[1:])]
    final = sum(spacing[-window:]) / window if len(spacing) >= window else None

    decisions = list(cluster.autoscaler.decisions)
    actions = [d["action"] for d in decisions]
    mechanisms = sorted({m for d in decisions if d["action"] == "spread"
                         for m in d["mechanisms"]})
    time_to_stable = (max(d["t"] for d in decisions) - step_at
                      if decisions else None)
    ticks_to_stable = (int(round(time_to_stable / interval))
                       if time_to_stable is not None else None)
    counters = cluster.metrics.counters_snapshot()
    converged = (cluster.job.finished
                 and (time_to_stable is None
                      or ticks_to_stable <= stable_ticks_bound))

    report = {
        "workers": num_workers,
        "iterations": iterations,
        "partitions_per_worker": partitions_per_worker,
        "seed": seed,
        "mode": mode,
        "step": step,
        "step_iteration": step_iteration,
        "step_at": step_at,
        "interval": interval,
        "cold_start": cold_start,
        "pre_step_iteration_time": pre,
        "final_iteration_time": final,
        "time_to_stable": time_to_stable,
        "ticks_to_stable": ticks_to_stable,
        "stable_ticks_bound": stable_ticks_bound,
        "workers_final": len(cluster.controller.live_workers),
        "workers_added": int(counters.get("scale.workers_added", 0.0)),
        "workers_drained": int(counters.get("scale.workers_drained", 0.0)),
        "spread_moves": int(counters.get("scale.spread_moves", 0.0)),
        "decisions": len(decisions),
        "actions": actions,
        "mechanisms": mechanisms,
        "tasks_executed": int(counters.get("tasks_executed", 0.0)),
        "converged": converged,
    }
    if control:
        _, fixed = build_scale_step(
            num_workers, iterations, seed=seed,
            partitions_per_worker=partitions_per_worker, step=step,
            step_at=step_at, mode=mode, shards=shards)
        fixed.run_until_finished()
        report["control_tasks_executed"] = int(
            fixed.metrics.count("tasks_executed"))
        report["zero_loss"] = (
            report["tasks_executed"] == report["control_tasks_executed"]
            and _values_digest(cluster) == _values_digest(fixed))
        report["converged"] = converged and report["zero_loss"]
    return report
