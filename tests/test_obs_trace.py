"""Tests for the observability layer: tracer, exporter, critical path,
and the JSON round trip of a run's counters.

The two load-bearing guarantees:

* **bit-identity** — tracing is pure observation. A traced run's virtual
  results (iteration times, decision counters, chaos fault schedules) are
  bit-identical to an untraced run across seeds.
* **exporter stability** — the Chrome ``trace_event`` JSON follows the
  format's schema (checked against a golden file and structurally on a
  real run) so Perfetto keeps loading it.
"""

import json
import math
import os

import pytest

from repro.analysis import critical_path, render_critical_path
from repro.obs import (
    Tracer,
    to_chrome_trace,
    trace_enabled_default,
)
from repro.obs import trace as trace_mod

from . import helpers

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_TRACE = os.path.join(DATA_DIR, "golden_trace.json")

LR_BLOCK = "lr.iteration"


def run_lr(trace, seed=0, chaos_seed=None, workers=3, iterations=6,
           mode="centralized"):
    """This suite's convention: chaos means the "lossy" profile, and the
    first (trace on/off) argument is what each test varies."""
    return helpers.run_lr(
        workers=workers, iterations=iterations, seed=seed,
        chaos_profile=None if chaos_seed is None else "lossy",
        chaos_seed=0 if chaos_seed is None else chaos_seed, trace=trace,
        mode=mode)


def virtual_results(cluster):
    return helpers.virtual_results(cluster, LR_BLOCK, skip=2)


# ---------------------------------------------------------------------------
# Off by default, zero footprint when off
# ---------------------------------------------------------------------------
def test_tracing_is_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.setattr(trace_mod, "TRACE_ENABLED", False)
    assert not trace_enabled_default()
    cluster = run_lr(trace=None, iterations=4)
    assert cluster.tracer is None
    assert cluster.controller._trace is None
    assert all(w._trace is None for w in cluster.workers.values())


def test_env_variable_enables_tracing(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert trace_enabled_default()
    monkeypatch.setenv("REPRO_TRACE", "0")
    monkeypatch.setattr(trace_mod, "TRACE_ENABLED", False)
    assert not trace_enabled_default()


# ---------------------------------------------------------------------------
# Bit-identity: traced == untraced, across seeds, with and without chaos
# ---------------------------------------------------------------------------
def test_traced_runs_are_bit_identical_across_seeds():
    for seed in range(10):
        untraced = run_lr(trace=False, seed=seed)
        traced = run_lr(trace=True, seed=seed)
        assert virtual_results(traced) == virtual_results(untraced), \
            f"seed {seed}: tracing changed the simulation"
        # and the tracer actually recorded the run
        assert traced.tracer.cmds and traced.tracer.runs
        assert traced.tracer.finish_time == traced.sim.now


def test_traced_chaos_runs_keep_the_fault_schedule():
    for chaos_seed in (0, 1, 2):
        untraced = run_lr(trace=False, chaos_seed=chaos_seed)
        traced = run_lr(trace=True, chaos_seed=chaos_seed)
        assert traced.network.fault_log == untraced.network.fault_log, \
            f"chaos seed {chaos_seed}: tracing perturbed the fault schedule"
        assert virtual_results(traced) == virtual_results(untraced)
        assert traced.metrics.counters_snapshot("chaos.") == \
            untraced.metrics.counters_snapshot("chaos.")
        assert traced.metrics.counters_snapshot("protocol.") == \
            untraced.metrics.counters_snapshot("protocol.")


# ---------------------------------------------------------------------------
# Exporter: golden file + structural schema on a real run
# ---------------------------------------------------------------------------
class FakeSim:
    """Minimal engine stand-in: settable clock + order sequence."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0

    def at(self, now, seq):
        self.now = now
        self._seq = seq

    def order_key(self):
        return (self.now, self._seq)


def build_golden_tracer() -> Tracer:
    """A tiny hand-scripted run covering every event family the exporter
    handles: spans, instants, flows (ctrl + copy), command async pairs,
    copies, runs, and requests. Timestamps are exact binary floats so the
    golden JSON is platform-stable."""
    sim = FakeSim()
    tracer = Tracer(sim)
    sim.at(0.0, 1)
    tracer.block_submit(1, "blk", None)
    tracer.flow_send("driver", "controller", 1, "SubmitBlock")
    sim.at(0.001953125, 2)
    tracer.flow_recv("driver", "controller", 1)
    tracer.run_begin(1, "blk", "central", 1, 2, 0.001953125)
    tracer.flow_send("controller", "worker-0", 1, "DispatchCommandBatch")
    tracer.run_decided(1, 0.00390625)
    tracer.handler_span("controller", "SubmitBlock", 0.001953125, 0.001953125)
    sim.at(0.0078125, 3)
    tracer.flow_recv("controller", "worker-0", 1)
    tracer.cmd_enqueue(10, 0, "lr.gradient", "worker-0", 1)   # TASK
    tracer.cmd_ready(10, None)
    tracer.cmd_enqueue(11, 1, None, "worker-0", 1)            # SEND
    sim.at(0.015625, 4)
    tracer.cmd_start(10)
    sim.at(0.03125, 5)
    tracer.cmd_complete(10)
    tracer.cmd_ready(11, ("cmd", 10))
    tracer.cmd_start(11)
    tracer.copy_send((1, 1, 0), 11, "worker-0", 4096)
    tracer.flow_send("worker-0", "worker-1", 1, "DataMessage")
    tracer.cmd_complete(11)
    sim.at(0.046875, 6)
    tracer.flow_recv("worker-0", "worker-1", 1)
    tracer.copy_arrive((1, 1, 0), "worker-1")
    tracer.instant("worker-1", "template", "template.install",
                   block_id="blk", version=0, entries=2)
    sim.at(0.0625, 7)
    tracer.run_finish(1)
    tracer.block_complete(1)
    sim.at(0.078125, 8)
    tracer.driver_finish()
    return tracer


def test_exporter_matches_golden_file():
    actual = json.loads(json.dumps(to_chrome_trace(build_golden_tracer())))
    with open(GOLDEN_TRACE) as fh:
        expected = json.load(fh)
    assert actual == expected


def test_exporter_schema_on_a_real_run():
    cluster = run_lr(trace=True)
    doc = to_chrome_trace(cluster.tracer)
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["commands"] == len(cluster.tracer.cmds)
    assert doc["otherData"]["inter_worker_copies"] > 0

    known_phases = {"M", "X", "i", "b", "e", "s", "f"}
    pids = set()
    for ev in events:
        assert ev["ph"] in known_phases
        assert isinstance(ev["pid"], int)
        assert isinstance(ev["tid"], int)
        assert "name" in ev
        if ev["ph"] == "M":
            pids.add(ev["pid"])
            continue
        assert ev["ts"] >= 0.0
        if ev["ph"] == "X":
            assert ev["dur"] >= 0.0
        if ev["ph"] in ("b", "e", "s", "f"):
            assert "id" in ev
        assert ev["pid"] in pids  # every event's process has metadata

    # async begin/end pairs balance per command id
    begins = [ev["id"] for ev in events if ev["ph"] == "b"]
    ends = [ev["id"] for ev in events if ev["ph"] == "e"]
    assert sorted(begins) == sorted(ends) and begins

    # flow starts/finishes balance, and inter-worker copies produce "copy"
    # flows (one per DataMessage) linking sender to receiver
    flow_starts = {ev["id"] for ev in events if ev["ph"] == "s"}
    flow_ends = {ev["id"] for ev in events if ev["ph"] == "f"}
    assert flow_ends <= flow_starts
    copy_flows = [ev for ev in events
                  if ev["ph"] == "s" and ev["cat"] == "copy"]
    assert len(copy_flows) >= doc["otherData"]["inter_worker_copies"]

    # timestamps are sorted (ties broken by engine order at export time)
    ts = [ev["ts"] for ev in events if ev["ph"] != "M"]
    assert ts == sorted(ts)


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------
def test_critical_path_attributes_the_wall_clock():
    cluster = run_lr(trace=True)
    report = critical_path(cluster.tracer)
    assert report.total == cluster.sim.now
    assert not report.truncated
    assert report.coverage >= 0.95
    assert all(v >= 0.0 for v in report.segments.values())
    assert report.segments["compute"] > 0.0
    assert math.isclose(report.attributed
                        + (report.total - report.attributed), report.total)
    rendered = render_critical_path(report)
    assert "critical path" in rendered and "attributed" in rendered


def test_critical_path_covers_decentralized_runs():
    """A self-scheduling run's steady-state instances are dispatched by
    the worker itself, so most commands on the path have no per-instance
    controller decision; the frontier walk must still attribute ≥95% of
    the wall clock."""
    cluster = run_lr(iterations=16, trace=True, mode="decentralized")
    report = critical_path(cluster.tracer)
    assert report.total == cluster.sim.now
    assert not report.truncated
    assert report.coverage >= 0.95
    assert report.segments["compute"] > 0.0


def test_critical_path_tolerates_missing_decision_spans():
    """Regression: the walk assumed every run had a controller decision
    span (``decide_start``/``decide_end``).  Strip them — the shape a
    controller-bypassed hop produces — and the walk must neither crash
    nor leave the wall clock unattributed."""
    cluster = run_lr(iterations=12, trace=True, mode="decentralized")
    tracer = cluster.tracer
    stripped = 0
    for run in tracer.runs.values():
        if run.mode == "self":
            run.decide_start = None
            run.decide_end = None
            stripped += 1
    assert stripped > 0  # the steady state really is self-scheduled
    report = critical_path(tracer)
    assert not report.truncated
    assert report.coverage >= 0.95

    # even with the run records gone entirely the walk stays total
    for run in [r for r in tracer.runs.values() if r.mode == "self"]:
        del tracer.runs[run.seq]
    report = critical_path(tracer)
    assert not report.truncated
    assert report.coverage >= 0.95


def test_critical_path_of_empty_trace_is_benign():
    report = critical_path(Tracer(FakeSim()))
    assert report.total == 0.0
    assert report.coverage == 1.0
    assert report.chain == []


# ---------------------------------------------------------------------------
# Counter snapshot
# ---------------------------------------------------------------------------
def test_snapshot_of_a_real_run_round_trips_through_json():
    cluster = run_lr(trace=False, iterations=4)
    snap = cluster.metrics.counters_snapshot()
    assert snap["tasks_executed"] > 0
    assert len(cluster.metrics.durations("driver_block")) > 0
    assert json.loads(json.dumps(snap)) == snap
