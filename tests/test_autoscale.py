"""Elastic autoscaling (DESIGN.md §15): parity, convergence, drains.

The autoscaler's determinism contract mirrors the rebalancer's and the
tracer's: the reconciliation tick is pure observation until a decision
trips, and every decision it does take flows through value-preserving
mechanisms (template edits/reinstalls for spreads, the eviction drain
for scale-down). Two families of guarantees follow, and both are pinned
here:

* **parity** — enabling the autoscaler never changes what a job
  computes: :func:`tests.helpers.computed_values` (results history,
  executed-task count, final object values) is bit-identical to the
  fixed-size run, across seeds, workloads, chaos, and the decentralized
  scheduling mode — *whether or not* the policy trips.
* **convergence** — a scripted demand step (seeded chaos
  ``FaultPlan.demand_step``) triggers reconciliation that re-stabilizes
  within a bounded number of intervals: scale-up provisions and spreads
  through the template machinery (never a job restart), scale-down
  drains through DRAINING → evict → drained with zero lost or
  duplicated task completions.
"""

import pytest

import repro.apps.scenarios as scenarios
from repro.apps import KMeansApp, KMeansSpec, WaterApp, WaterSpec
from repro.chaos import FaultPlan
from repro.nimbus import NimbusCluster
from repro.scale import TargetUtilizationPolicy

from .helpers import computed_values, run_lr

SEEDS = range(10)
MODES = ("centralized", "decentralized", "sharded")
CHAOS_SEEDS = (3, 11)


def run_kmeans(seed, **kw):
    spec = KMeansSpec(num_workers=4, iterations=8, partitions_per_worker=4)
    app = KMeansApp(spec)
    cluster = NimbusCluster(4, app.program(blocking=False),
                            registry=app.registry, seed=seed, **kw)
    cluster.run_until_finished(max_seconds=1e6)
    return cluster


def run_water(seed, **kw):
    spec = WaterSpec(num_workers=4, partitions_per_worker=2, scale=0.002,
                     frame_duration=0.006, reseed_every=3)
    app = WaterApp(spec)
    cluster = NimbusCluster(4, app.program(), registry=app.registry,
                            seed=seed, **kw)
    cluster.run_until_finished(max_seconds=1e6)
    return cluster


def run_step(workers=8, iterations=40, seed=0, step_at=15.0, step=2.0,
             autoscale=False, **kw):
    """Fig07 LR with a scripted demand step at ``step_at``."""
    from repro.apps import LRApp, LRSpec

    spec = LRSpec(num_workers=workers, iterations=iterations,
                  partitions_per_worker=4)
    app = LRApp(spec)
    plan = FaultPlan(seed).demand_step(step_at, step)
    cluster = NimbusCluster(workers, app.program(blocking=False),
                            registry=app.registry, seed=seed,
                            chaos_plan=plan, autoscale=autoscale, **kw)
    cluster.run_until_finished(max_seconds=1e6)
    return cluster


# ---------------------------------------------------------------------------
# 10-seed bit-identity: autoscaler-on ≡ fixed-size
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_fig07_values_identical_with_autoscaler(seed):
    fixed = computed_values(run_lr(seed=seed))
    auto = computed_values(run_lr(seed=seed, autoscale=True))
    assert auto == fixed, f"seed {seed}: fig07 values diverged"


@pytest.mark.parametrize("seed", SEEDS)
def test_fig08_values_identical_with_autoscaler(seed):
    fixed = computed_values(run_kmeans(seed))
    auto = computed_values(run_kmeans(seed, autoscale=True))
    assert auto == fixed, f"seed {seed}: fig08 values diverged"


@pytest.mark.parametrize("seed", SEEDS)
def test_water_values_identical_with_autoscaler(seed):
    fixed = computed_values(run_water(seed))
    auto = computed_values(run_water(seed, autoscale=True))
    assert auto == fixed, f"seed {seed}: water values diverged"


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_lossy_values_identical_with_autoscaler(seed):
    fixed = computed_values(run_lr(seed=seed, chaos_profile="lossy",
                                   chaos_seed=seed))
    auto = computed_values(run_lr(seed=seed, chaos_profile="lossy",
                                  chaos_seed=seed, autoscale=True))
    assert auto == fixed, f"seed {seed}: chaos-lossy values diverged"


@pytest.mark.parametrize("seed", SEEDS)
def test_decentralized_values_identical_with_autoscaler(seed):
    fixed = computed_values(run_lr(seed=seed, mode="decentralized"))
    auto = computed_values(run_lr(seed=seed, mode="decentralized",
                                  autoscale=True))
    assert auto == fixed, f"seed {seed}: decentralized values diverged"


def test_steady_run_takes_no_decisions():
    """The no-trigger half of the determinism contract, stated directly:
    a steady run's autoscaler ticks away but never acts."""
    cluster = run_lr(iterations=30, autoscale=True)
    assert cluster.autoscaler.ticks > 0
    assert cluster.autoscaler.decisions == []


@pytest.mark.parametrize("mode", ["decentralized", "sharded"])
def test_steady_window_run_takes_no_decisions(mode):
    """Nor does the reconciliation a window mode runs at each window
    boundary act on a steady run."""
    cluster = run_lr(iterations=30, autoscale=True, mode=mode)
    assert cluster.autoscaler.decisions == []


@pytest.mark.parametrize("settings, named", [
    ({"autoscale_interval": 0.0}, "interval"),
    ({"autoscale_interval": -0.5}, "interval"),
    ({"autoscale_cold_start": -1.0}, "cold_start"),
])
def test_autoscaler_rejects_a_tick_or_join_that_cannot_happen(settings,
                                                              named):
    """A zero tick reschedules itself at the same instant forever, so a
    run never stops; a negative one or a negative cold start schedules
    into the past. All are refused when the cluster is built."""
    with pytest.raises(ValueError, match=named):
        NimbusCluster(2, None, autoscale=True, **settings)


# ---------------------------------------------------------------------------
# Convergence: a 2x demand step scales up and re-stabilizes
# ---------------------------------------------------------------------------
def test_demand_step_scales_up_and_restabilizes():
    fixed = run_step()
    auto = run_step(autoscale=True)

    ups = [d for d in auto.autoscaler.decisions if d["action"] == "scale_up"]
    spreads = [d for d in auto.autoscaler.decisions
               if d["action"] == "spread"]
    assert ups, "2x demand step never triggered a scale-up"
    assert len(auto.controller.live_workers) > 8

    # bounded convergence: every scaling action lands within 120
    # reconciliation intervals of the step, then the loop goes quiet
    interval = auto.autoscaler.interval
    last = max(d["t"] for d in auto.autoscaler.decisions)
    assert last - 15.0 <= 120 * interval, (
        f"still reconciling {last - 15.0:.2f}s after the step")

    # scale-up went through the template machinery only — no restart:
    # the driver ran exactly one program to completion and every spread
    # mechanism is a template edit, reinstall, or pre-install reassign
    for d in spreads:
        assert set(d["mechanisms"]) <= {"edits", "reinstall", "reassign"}
    assert auto.job.finished

    # ... and changed nothing about what was computed
    assert computed_values(auto) == computed_values(fixed)


@pytest.mark.parametrize("mode", MODES)
def test_demand_step_takes_decisions_in_every_mode(mode, monkeypatch):
    """A window mode reports load only when a window closes. The
    autoscaler calibrates on the window's runs one at a time and decides
    at the boundary, so a 2x step scales up in every mode, against the
    target the centralized ticks pin before the step."""
    policies = []
    execute = scenarios.execute

    def recording(spec):
        run = execute(spec)
        if run.cluster.autoscaler is not None:
            policies.append(run.cluster.autoscaler.policy)
        return run

    monkeypatch.setattr(scenarios, "execute", recording)
    report = scenarios.run_scale_step(
        num_workers=8, iterations=30, step_iteration=10, mode=mode,
        control=False)
    assert report["decisions"] > 0
    assert report["actions"][0] == "scale_up"
    (policy,) = policies
    assert policy.target_load == pytest.approx(0.0418, rel=0.01)


def test_new_workers_receive_work():
    """Scale-up is real capacity, not bookkeeping: the spread re-homes
    template entries onto the provisioned workers and they execute."""
    auto = run_step(autoscale=True)
    new_workers = [w for w in auto.workers if w >= 8]
    assert new_workers
    # the load EWMA only gains an entry when a worker reports completed
    # instances — real execution, not bookkeeping
    tracked = [w for w in new_workers
               if w in auto.controller.load_tracker.load]
    assert tracked, "no provisioned worker ever reported load"


# ---------------------------------------------------------------------------
# Scale-down: DRAINING → evict → drained, nothing lost or duplicated
# ---------------------------------------------------------------------------
def test_demand_drop_drains_workers_without_losing_completions():
    fixed = run_step(step=0.5)
    auto = run_step(step=0.5, autoscale=True)

    downs = [d for d in auto.autoscaler.decisions
             if d["action"] == "scale_down"]
    assert downs, "0.5x demand step never triggered a scale-down"
    assert len(auto.controller.live_workers) < 8

    # the DRAINING lifecycle ran to completion: every drained worker is
    # out of the live set with empty queues and no granted windows
    drained = [w for w, wk in auto.workers.items()
               if wk.lifecycle == "drained"]
    assert drained
    for wid in drained:
        worker = auto.workers[wid]
        assert wid not in auto.controller.live_workers
        assert worker.queued_commands == 0
        assert not worker._grants

    # zero lost or duplicated task completions: identical executed-task
    # count and bit-identical results/values vs the fixed-size run
    assert (auto.metrics.count("tasks_executed")
            == fixed.metrics.count("tasks_executed"))
    assert computed_values(auto) == computed_values(fixed)


def test_drain_respects_decentralized_window_boundary():
    """A DRAINING worker holding part of an open self-schedule window is
    never evicted mid-window: the drain waits for the boundary quiesce.
    The whole run staying value-identical is the strongest statement
    that no granted instance was lost to the drain."""
    fixed = run_step(step=0.5, mode="decentralized", iterations=60)
    auto = run_step(step=0.5, mode="decentralized", iterations=60,
                    autoscale=True)
    assert computed_values(auto) == computed_values(fixed)


# ---------------------------------------------------------------------------
# Policy unit behavior
# ---------------------------------------------------------------------------
def test_policy_validates_band_and_bounds():
    with pytest.raises(ValueError):
        TargetUtilizationPolicy(low=1.2)
    with pytest.raises(ValueError):
        TargetUtilizationPolicy(high=0.9)
    with pytest.raises(ValueError):
        TargetUtilizationPolicy(min_workers=0)
    with pytest.raises(ValueError):
        TargetUtilizationPolicy(min_workers=8, max_workers=4)


def test_policy_calibrates_then_tracks_band():
    from repro.sched.rebalance import LoadTracker

    tracker = LoadTracker()
    policy = TargetUtilizationPolicy(warmup=2, cooldown=0)
    live = [0, 1]
    # ramping EWMA: no decision until the mean settles within tolerance
    for value in (1.0, 3.0, 3.8):
        for w in live:
            tracker.observe(w, value, {})
        assert policy.decide(tracker, live) == 0
    assert policy.target_load is None  # still drifting >5% per round
    for _ in range(5):  # EWMA converges toward 3.9; drift falls inside 5%
        for w in live:
            tracker.observe(w, 3.9, {})
        assert policy.decide(tracker, live) == 0
    assert policy.target_load is not None  # settled → calibrated
    target = policy.target_load
    # a 2x step in observed load demands 2x the workers
    for _ in range(6):
        for w in live:
            tracker.observe(w, target * 2.0, {})
    assert policy.decide(tracker, live) == 2


def test_policy_cooldown_suppresses_consecutive_decisions():
    from repro.sched.rebalance import LoadTracker

    tracker = LoadTracker()
    policy = TargetUtilizationPolicy(target_load=1.0, warmup=1, cooldown=2)
    live = [0, 1]
    for _ in range(4):
        for w in live:
            tracker.observe(w, 2.0, {})
    assert policy.decide(tracker, live) == 2
    assert policy.decide(tracker, live) == 0  # cooling down
    assert policy.decide(tracker, live) == 0  # cooling down
    assert policy.decide(tracker, live) == 2  # cooldown elapsed
