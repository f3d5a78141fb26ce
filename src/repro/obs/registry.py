"""Versioned snapshots of a :class:`~repro.sim.metrics.Metrics` instance.

A snapshot collapses every counter, series, and interval family into one
JSON-serializable dict holding the full metric state of a run. Raw sample
lists are summarized (count/min/max/mean plus first/last) — the artifact
stays small while remaining diffable across runs.
"""

from __future__ import annotations

from typing import Any, Dict

#: bump when the snapshot layout changes; recorded in every snapshot so
#: downstream tooling can detect stale artifacts.
SNAPSHOT_VERSION = 1

#: counters whose name does not say what is counted. The ``worker.seam_*``
#: family describes how template instances derive their cross-instance
#: edges (DESIGN.md §9).
COUNTER_HELP = {
    "worker.seam_builds":
        "seams compiled: a (predecessor plan, plan) pair met a second time",
    "worker.seam_hits":
        "compiled instantiations whose cross-instance edges came from a "
        "cached seam (at least one conflict check answered by it)",
    "worker.seam_fallback_oids":
        "conflict checks of compiled instantiations resolved by the "
        "tracker walk instead (no seam, or an object it does not cover)",
}


def _summarize(values) -> Dict[str, Any]:
    n = len(values)
    if n == 0:
        return {"count": 0}
    return {
        "count": n,
        "min": min(values),
        "max": max(values),
        "mean": sum(values) / n,
    }


def snapshot_metrics(metrics) -> Dict[str, Any]:
    """Snapshot ``metrics`` into a plain, versioned, JSON-safe dict."""
    counters = {name: value for name, value in sorted(metrics.counters.items())}

    series: Dict[str, Any] = {}
    for name in sorted(metrics.series):
        samples = metrics.series[name]
        summary = _summarize([value for _t, value in samples])
        if samples:
            summary["first_t"] = samples[0][0]
            summary["last_t"] = samples[-1][0]
        series[name] = summary

    open_by_name: Dict[str, int] = {}
    for (name, _key) in metrics._open:
        open_by_name[name] = open_by_name.get(name, 0) + 1

    intervals: Dict[str, Any] = {}
    for name in sorted(set(metrics.intervals) | set(open_by_name)):
        summary = _summarize(metrics.durations(name))
        summary["open"] = open_by_name.get(name, 0)
        intervals[name] = summary

    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "counters": counters,
        "series": series,
        "intervals": intervals,
    }
