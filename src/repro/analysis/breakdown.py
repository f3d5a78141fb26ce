"""Per-iteration timing breakdowns (the stacked bars of Figures 1 and 7).

An iteration's wall time divides into *computation* (the ideal parallel
execution of its task durations on the workers' slots, reported by the
workers themselves) and *control plane* (everything else: scheduling,
message handling, validation, serialization, queueing at the controller).
This mirrors how the paper separates the black and grey bar segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim.metrics import Metrics


@dataclass
class IterationBreakdown:
    """One iteration's timing: total, computation, and control share."""

    request_id: int
    block_id: str
    total: float
    compute: float
    num_tasks: int
    mode: str

    @property
    def control(self) -> float:
        return max(0.0, self.total - self.compute)


def iteration_breakdowns(metrics: Metrics,
                         block_id: Optional[str] = None
                         ) -> List[IterationBreakdown]:
    """Join the driver-side iteration intervals with the controller-side
    block records into per-iteration breakdowns."""
    by_request: Dict[int, dict] = {}
    for interval in metrics.intervals.get("block", ()):
        request_id = interval.labels.get("request_id")
        if request_id:
            by_request[request_id] = {
                "compute": interval.labels.get("compute", 0.0),
                "num_tasks": interval.labels.get("num_tasks", 0),
                "mode": interval.labels.get("mode", "?"),
            }
    out: List[IterationBreakdown] = []
    for interval in metrics.intervals.get("driver_block", ()):
        if interval.labels.get("aborted"):
            continue
        if block_id is not None and interval.labels.get("block_id") != block_id:
            continue
        request_id = interval.labels["request_id"]
        info = by_request.get(request_id, {})
        out.append(IterationBreakdown(
            request_id=request_id,
            block_id=interval.labels["block_id"],
            total=interval.duration,
            compute=info.get("compute", 0.0),
            num_tasks=info.get("num_tasks", 0),
            mode=info.get("mode", "?"),
        ))
    out.sort(key=lambda b: b.request_id)
    return out


def mean_iteration_time(metrics: Metrics, block_id: str,
                        skip: int = 0) -> float:
    """Mean wall time of the iterations of ``block_id``.

    With non-blocking submission (the paper's measurement mode) iterations
    pipeline through the system, so the steady-state iteration time is the
    spacing between successive iteration *completions*. The first ``skip``
    iterations (template installation warm-up) seed the baseline and are
    excluded from the mean.
    """
    ends = iteration_ends(metrics, block_id)
    if len(ends) <= skip + 1:
        raise ValueError(
            f"need more than {skip + 1} iterations of {block_id!r}; "
            f"got {len(ends)}"
        )
    baseline = ends[skip - 1] if skip > 0 else _first_start(metrics, block_id)
    return (ends[-1] - baseline) / (len(ends) - skip)


def mean_compute_time(metrics: Metrics, block_id: str,
                      skip: int = 0) -> float:
    """Mean per-iteration computation component of ``block_id``."""
    values = [
        iv.labels.get("compute", 0.0)
        for iv in metrics.intervals.get("block", ())
        if iv.labels.get("block_id") == block_id
    ][skip:]
    if not values:
        raise ValueError(f"no block records for {block_id!r}")
    return sum(values) / len(values)


def task_throughput(metrics: Metrics, block_id: str,
                    skip: int = 0) -> float:
    """Tasks per second sustained over the steady-state iterations of
    ``block_id`` (Figure 8's y-axis)."""
    intervals = _iteration_intervals(metrics, block_id)
    if len(intervals) <= skip + 1:
        raise ValueError(f"need more than {skip + 1} iterations of {block_id!r}")
    by_request = {
        iv.labels.get("request_id"): iv.labels.get("num_tasks", 0)
        for iv in metrics.intervals.get("block", ())
    }
    kept = intervals[skip:]
    tasks = sum(by_request.get(iv.labels["request_id"], 0) for iv in kept)
    ends = [iv.end for iv in intervals]
    baseline = ends[skip - 1] if skip > 0 else _first_start(metrics, block_id)
    span = ends[-1] - baseline
    if span <= 0:
        # degenerate run (all kept iterations ended at the same virtual
        # instant): there is no rate to report. NaN — not 0.0, which reads
        # as "measured zero throughput" — so consumers must handle it.
        return float("nan")
    return tasks / span


def _iteration_intervals(metrics: Metrics, block_id: str):
    intervals = [iv for iv in metrics.intervals.get("driver_block", ())
                 if iv.labels.get("block_id") == block_id
                 and not iv.labels.get("aborted")]
    intervals.sort(key=lambda iv: iv.end)
    return intervals


def iteration_ends(metrics: Metrics, block_id: str) -> List[float]:
    """When each iteration of ``block_id`` ended, in order, leaving out
    the ones in flight when recovery restored the job (``aborted``)."""
    return [iv.end for iv in _iteration_intervals(metrics, block_id)]


def _first_start(metrics: Metrics, block_id: str) -> float:
    intervals = _iteration_intervals(metrics, block_id)
    if not intervals:
        raise ValueError(f"no iterations recorded for {block_id!r}")
    return min(iv.start for iv in intervals)
