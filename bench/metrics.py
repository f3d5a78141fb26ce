"""The benchmark's metric declarations: name, unit, clock, direction, bound.

``BENCHMARK.json`` carries the name/unit/direction/bound of every metric
for the driver; this module is the same list with the clock added, and is
what ``run.py`` reports and compares by. ``bench/tests`` checks the two
agree.

Clocks: ``host`` is what the simulator costs whoever runs it, ``virtual``
is what the modelled Nimbus cluster would take, ``count`` is a
deterministic tally. Virtual and count metrics repeat exactly for one seed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from layers import LAYERS


class Metric(NamedTuple):
    name: str
    unit: str
    clock: str  # host | virtual | count
    better: str  # lower | higher
    #: share of the baseline median by which the metric may get worse
    #: before a change counts as a regression (end-to-end metrics only)
    bound: Optional[float] = None


#: ``--compare`` of two runs of one seed holds virtual metrics to this
#: tolerance instead of their declared bound: the declared bound has to
#: absorb seed-to-seed variation, which a same-seed comparison has none of.
SAME_SEED_VIRTUAL_BOUND = 0.001

END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "host", "lower", 0.25),
    Metric("host_us_per_task", "us", "host", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "host", "lower", 0.10),
    Metric("virt_steady_s", "s", "virtual", "lower", 0.05),
    Metric("virt_tasks_per_s", "1/s", "virtual", "higher", 0.05),
    Metric("virt_job_p50_s", "s", "virtual", "lower", 0.20),
    Metric("virt_job_p90_s", "s", "virtual", "lower", 0.25),
]

PER_LAYER: List[Metric] = [
    metric
    for layer in LAYERS
    for metric in (
        Metric(f"{layer}.self_us_per_task", "us", "host", "lower"),
        Metric(f"{layer}.setup_self_s", "s", "host", "lower"),
        Metric(f"{layer}.calls_per_task", "count", "count", "lower"),
    )
] + [
    Metric("python.calls_per_task", "count", "count", "lower"),
    Metric("sim.engine.events_per_task", "count", "count", "lower"),
    Metric("sim.network.transmits_per_task", "count", "count", "lower"),
    Metric("nimbus.controller.handled_per_task", "count", "count", "lower"),
    Metric("nimbus.worker.handled_per_task", "count", "count", "lower"),
    Metric("nimbus.shard.handled_per_task", "count", "count", "lower"),
    Metric("nimbus.controller.msgs_per_task", "count", "count", "lower"),
    Metric("nimbus.controller.steady_msgs_per_task", "count", "count", "lower"),
    Metric("nimbus.controller.busy_pct", "%", "virtual", "lower"),
    Metric("nimbus.worker.busy_pct", "%", "virtual", "lower"),
    Metric("nimbus.protocol.retries", "count", "count", "lower"),
    Metric("core.validation.auto", "count", "count", "higher"),
    Metric("core.validation.full", "count", "count", "lower"),
    Metric("core.patching.computed", "count", "count", "lower"),
    Metric("core.patching.hit_ratio", "ratio", "count", "higher"),
    Metric("core.compiled.plans_compiled", "count", "count", "lower"),
    Metric("core.edits.applied", "count", "count", "lower"),
    Metric("core.worker_template.installed", "count", "count", "lower"),
    Metric("core.worker_template.regenerations", "count", "count", "lower"),
    Metric("core.controller_template.instantiations", "count", "count", "higher"),
    Metric("sched.grants", "count", "count", "lower"),
    Metric("sched.stalls", "count", "count", "lower"),
    Metric("nimbus.multijob.admitted", "count", "count", "higher"),
    Metric("nimbus.multijob.queued", "count", "count", "lower"),
    Metric("nimbus.multijob.rejected", "count", "count", "lower"),
    Metric("nimbus.multijob.queue_wait_p90_s", "s", "virtual", "lower"),
    Metric("virt.setup_s", "s", "virtual", "lower"),
    Metric("virt.compute_pct", "%", "virtual", "higher"),
    Metric("virt.queue_pct", "%", "virtual", "lower"),
    Metric("virt.network_pct", "%", "virtual", "lower"),
    Metric("virt.control_pct", "%", "virtual", "lower"),
    Metric("virt.critical_path_coverage_pct", "%", "virtual", "higher"),
    Metric("bench.profile_coverage_pct", "%", "host", "higher"),
    Metric("bench.profile_overhead_x", "x", "host", "lower"),
    Metric("bench.obs_trace_overhead_x", "x", "host", "lower"),
]

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}
