"""Automated Fig. 9/10: a chaos-injected straggler the system routes
around on its own.

The scripted Fig. 9 benchmark (``benchmarks/test_fig09_dynamic.py``)
drives eviction/restore from a hand-written test timeline. This workload
closes the loop instead: a scripted ``slow_worker`` chaos event degrades
one worker 2× mid-run, the adaptive rebalancer (``repro.sched``) detects
the skew from piggybacked per-task timings, and template *edits* move the
straggler's gradient tasks to the least loaded survivors — the first
workload where iteration time recovers without a test script calling
``migrate_tasks``.

The run is deterministic: a fault-free probe run fixes the virtual time
at which iteration ``fault_iteration`` completes, and the measured run
injects the slowdown exactly there. Because rebalancer observation is
pure, the measured run's pre-fault prefix is bit-identical to the probe.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..apps.lr import LRApp, LRSpec
from ..chaos import FaultPlan
from ..nimbus.cluster import NimbusCluster

BLOCK_ID = "lr.iteration"

#: tdata partition size: small enough that the one-time relocation copies
#: (~26 ms each at 1.25 GB/s) cost well under one iteration, large enough
#: that the 10.5 ms gradient dominates the 0.3–2 ms reduction tasks
BYTES_PER_PARTITION = 32e6


def build_fig09_auto(
    num_workers: int,
    iterations: int,
    seed: int = 0,
    partitions_per_worker: int = 4,
    straggler: Optional[int] = None,
    scale: float = 2.0,
    fault_at: Optional[float] = None,
    rebalance: bool = True,
    rebalance_threshold: float = 1.4,
    trace: Optional[bool] = False,
) -> Tuple[LRApp, NimbusCluster]:
    """Wire the automated-fig09 LR cluster (no fault when ``fault_at`` is
    None). Shared by the CLI ``rebalance`` subcommand and the
    benchmark/regression tests."""
    spec = LRSpec(
        num_workers=num_workers,
        data_bytes=BYTES_PER_PARTITION * num_workers * partitions_per_worker,
        partitions_per_worker=partitions_per_worker,
        iterations=iterations,
    )
    app = LRApp(spec)
    plan = None
    if fault_at is not None:
        if straggler is None:
            straggler = num_workers - 1
        plan = FaultPlan(seed).slow_worker(fault_at, straggler, scale)
    cluster = NimbusCluster(
        num_workers, app.program(blocking=False), registry=app.registry,
        seed=seed, chaos_plan=plan, rebalance=rebalance,
        rebalance_threshold=rebalance_threshold, trace=trace,
    )
    return app, cluster


def _iteration_ends(metrics, block_id: str = BLOCK_ID) -> List[float]:
    ivs = [iv for iv in metrics.intervals.get("driver_block", ())
           if iv.labels.get("block_id") == block_id
           and not iv.labels.get("aborted")]
    return sorted(iv.end for iv in ivs)


def run_fig09_auto(
    num_workers: int = 16,
    iterations: int = 40,
    seed: int = 0,
    partitions_per_worker: int = 4,
    scale: float = 2.0,
    fault_iteration: int = 12,
    skip: int = 4,
    window: int = 4,
    rebalance: bool = True,
    recovery_slack: float = 1.15,
) -> Dict:
    """Run the automated-fig09 workload and report recovery statistics.

    ``iterations_to_recover`` counts iterations from the fault until every
    later iteration's completion spacing stays within ``recovery_slack`` ×
    the pre-fault mean (None if the run never settles — e.g. with
    ``rebalance=False``, the control experiment). ``recovered_iteration_
    time`` is the mean spacing of the final ``window`` iterations.
    """
    # fault-free probe: fixes where iteration `fault_iteration` completes
    _, probe = build_fig09_auto(
        num_workers, iterations, seed=seed,
        partitions_per_worker=partitions_per_worker, rebalance=False)
    probe.run_until_finished()
    probe_ends = _iteration_ends(probe.metrics)
    if len(probe_ends) < iterations or fault_iteration >= iterations - window:
        raise ValueError("fault_iteration leaves no room to measure recovery")
    fault_at = probe_ends[fault_iteration - 1]
    straggler = num_workers - 1

    _, cluster = build_fig09_auto(
        num_workers, iterations, seed=seed,
        partitions_per_worker=partitions_per_worker, straggler=straggler,
        scale=scale, fault_at=fault_at, rebalance=rebalance)
    cluster.run_until_finished()
    metrics = cluster.metrics
    ends = _iteration_ends(metrics)
    spacing = [b - a for a, b in zip(ends, ends[1:])]  # spacing[k]: iter k+2

    pre = (ends[fault_iteration - 1] - ends[skip - 1]) / (fault_iteration - skip)
    post = spacing[fault_iteration - 1:]
    peak = max(post)
    recovered = sum(spacing[-window:]) / window
    threshold = recovery_slack * pre
    last_bad = None
    for k in range(fault_iteration - 1, len(spacing)):
        if spacing[k] > threshold:
            last_bad = k
    if last_bad is None:
        iterations_to_recover = 0
    elif last_bad >= len(spacing) - window:
        iterations_to_recover = None  # still unstable at the end of the run
    else:
        # spacing[k] measures iteration k+2; the first clean one is k+3
        iterations_to_recover = (last_bad + 3) - fault_iteration

    counters = metrics.counters_snapshot()
    rebalancer = cluster.rebalancer
    decisions = list(rebalancer.decisions) if rebalancer is not None else []
    moves = sum(len(applied) for (_t, _b, applied, _m) in decisions)
    mechanisms = sorted({mech for (_t, _b, _a, mech) in decisions})
    converged = (iterations_to_recover is not None
                 and iterations_to_recover <= 10
                 and recovered <= threshold)
    return {
        "workers": num_workers,
        "iterations": iterations,
        "partitions_per_worker": partitions_per_worker,
        "seed": seed,
        "straggler": straggler,
        "scale": scale,
        "fault_iteration": fault_iteration,
        "fault_at": fault_at,
        "skip": skip,
        "window": window,
        "rebalance": rebalance,
        "recovery_slack": recovery_slack,
        "pre_fault_iteration_time": pre,
        "post_fault_peak": peak,
        "recovered_iteration_time": recovered,
        "recovery_ratio": recovered / pre if pre > 0 else float("inf"),
        "iterations_to_recover": iterations_to_recover,
        "decisions": len(decisions),
        "moves": moves,
        "mechanisms": mechanisms,
        "edits_applied": counters.get("edits_applied", 0.0),
        "rebalance_moves": counters.get("rebalance_moves", 0.0),
        "worker_template_regenerations": counters.get(
            "worker_template_regenerations", 0.0),
        "converged": converged,
    }
