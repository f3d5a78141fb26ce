"""Exact timelines of the worker-set changes no benchmark workload makes.

A worker dying inside a self-schedule window, and the autoscaler adding
and draining workers, re-home objects and template entries and rebuild
the affected templates. The pins here hold each of those paths to its
exact virtual timeline, next to the eviction/restore rows in
``tests/test_dynamic.py`` and the recovery pins in
``tests/test_fault_tolerance.py``.
"""

import pytest

import repro.apps.scenarios as scenarios
from repro.apps import LRApp, LRSpec
from repro.nimbus import NimbusCluster

#: mode -> (sim.now, events_run, self_schedule.aborted_windows,
#: self_schedule.reclaimed_instances) of a pipelined LR run whose worker 3
#: dies at t=0.5, inside the first granted window. Without a checkpoint
#: the program cannot finish; the run goes until the event horizon is dry.
CRASH_MID_WINDOW_PINS = {
    "decentralized": (30.0, 220, 1, 80),
    "sharded": (30.0, 228, 1, 80),
}


@pytest.mark.parametrize("mode", sorted(CRASH_MID_WINDOW_PINS))
def test_crash_mid_window_timeline_is_pinned(mode):
    app = LRApp(LRSpec(num_workers=4, iterations=24,
                       partitions_per_worker=4))
    cluster = NimbusCluster(4, app.program(blocking=False),
                            registry=app.registry, seed=0, mode=mode)

    def crash():
        cluster.workers[3].fail()
        cluster.controller.membership.on_worker_dead(3)

    cluster.sim.schedule_at(0.5, crash)
    cluster.driver.start()
    cluster.sim.run(until=30.0)
    assert (cluster.sim.now, cluster.sim.events_run,
            cluster.metrics.count("self_schedule.aborted_windows"),
            cluster.metrics.count("self_schedule.reclaimed_instances")) \
        == CRASH_MID_WINDOW_PINS[mode]


#: demand step -> (autoscaler actions, workers_final, sim.now, events_run)
#: of the autoscaled run of a 4-worker, 20-iteration centralized scale
#: step after iteration 8
SCALE_STEP_PINS = {
    2.0: (("scale_up", "join", "spread", "scale_up"), 6,
          0.4470806264393439, 1796),
    0.5: (("scale_down", "evict", "drained"), 3,
          0.282776155540983, 1655),
}


@pytest.mark.parametrize("step", sorted(SCALE_STEP_PINS))
def test_scale_step_timeline_is_pinned(step, monkeypatch):
    autoscaled = []
    execute = scenarios.execute

    def recording(spec):
        run = execute(spec)
        if run.cluster.autoscaler is not None:
            autoscaled.append(run.cluster)
        return run

    monkeypatch.setattr(scenarios, "execute", recording)
    report = scenarios.run_scale_step(
        num_workers=4, iterations=20, step=step, step_iteration=8,
        control=False)
    (cluster,) = autoscaled
    assert (tuple(report["actions"]), report["workers_final"],
            cluster.sim.now, cluster.sim.events_run) \
        == SCALE_STEP_PINS[step]
