"""Analysis: turning run metrics into the paper's tables and figures."""

from .breakdown import (
    IterationBreakdown,
    iteration_breakdowns,
    iteration_ends,
    mean_iteration_time,
    task_throughput,
)
from .critical_path import (
    CriticalPathReport,
    critical_path,
    render_critical_path,
)
from .render import render_bars, render_series, render_table

__all__ = [
    "CriticalPathReport",
    "IterationBreakdown",
    "critical_path",
    "iteration_breakdowns",
    "iteration_ends",
    "mean_iteration_time",
    "render_bars",
    "render_critical_path",
    "render_series",
    "render_table",
    "task_throughput",
]
