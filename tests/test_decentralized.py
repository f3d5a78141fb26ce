"""Decentralized self-scheduling: mode parity and the window protocol.

The contract (DESIGN.md §14): ``mode="decentralized"`` changes *when*
work happens — workers advance template instances locally from one
granted window instead of one controller round-trip per instance — but
never *what* is computed. These sweeps pin that down as bit-identity of
:func:`tests.helpers.computed_values` (results history, task counts,
final object values) against the centralized mode, across seeds, chaos
profiles, the rebalancer, and co-scheduled tenants with mixed per-job
modes. Timing observables are expected to differ; that difference is the
entire point of the mode (BENCH's ``scheduling_modes`` section measures
it).

Alongside the parity sweeps: the window mechanics themselves — grants
actually happen, the controller's steady-state message traffic collapses
(the ISSUE's ≤20% gate at fig07@100), and a mid-run partition-map epoch
bump stalls the grant at a block boundary and resumes via re-grant
without changing any computed value.
"""

import pytest

from repro.apps import (
    KMeansApp,
    KMeansSpec,
    RotationApp,
    RotationSpec,
    WaterApp,
    WaterSpec,
)
from repro.chaos import PROFILES
from repro.nimbus import NimbusCluster
from repro.nimbus import protocol as P

from .helpers import computed_values, run_lr

SEEDS = range(10)
CHAOS_SEEDS = (3, 11)


# ---------------------------------------------------------------------------
# Workload runners (one cluster each, returning values-only observables)
# ---------------------------------------------------------------------------
def run_kmeans(mode, seed):
    spec = KMeansSpec(num_workers=4, iterations=8, partitions_per_worker=4)
    app = KMeansApp(spec)
    cluster = NimbusCluster(4, app.program(blocking=False),
                            registry=app.registry, seed=seed, mode=mode)
    cluster.run_until_finished(max_seconds=1e6)
    return computed_values(cluster)


def run_rotation(mode, seed):
    spec = RotationSpec(num_workers=4, iterations=10, seed=seed)
    app = RotationApp(spec)
    cluster = NimbusCluster(4, app.program(), registry=app.registry,
                            seed=seed, mode=mode)
    cluster.run_until_finished(max_seconds=1e6)
    return computed_values(cluster)


def run_water(mode, seed):
    spec = WaterSpec(num_workers=4, partitions_per_worker=2, scale=0.002,
                     frame_duration=0.006, reseed_every=3)
    app = WaterApp(spec)
    cluster = NimbusCluster(4, app.program(), registry=app.registry,
                            seed=seed, mode=mode)
    cluster.run_until_finished(max_seconds=1e6)
    return computed_values(cluster)


# ---------------------------------------------------------------------------
# 10-seed bit-identity sweeps
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_fig07_values_identical_across_modes(seed):
    cent = computed_values(run_lr(seed=seed))
    dec = computed_values(run_lr(seed=seed, mode="decentralized"))
    assert dec == cent, f"seed {seed}: fig07 values diverged across modes"


@pytest.mark.parametrize("seed", SEEDS)
def test_fig08_values_identical_across_modes(seed):
    assert run_kmeans("decentralized", seed) == run_kmeans(
        "centralized", seed), f"seed {seed}: fig08 values diverged"


@pytest.mark.parametrize("seed", SEEDS)
def test_rotation_values_identical_across_modes(seed):
    assert run_rotation("decentralized", seed) == run_rotation(
        "centralized", seed), f"seed {seed}: rotation values diverged"


@pytest.mark.parametrize("seed", SEEDS)
def test_water_values_identical_across_modes(seed):
    assert run_water("decentralized", seed) == run_water(
        "centralized", seed), f"seed {seed}: water values diverged"


# ---------------------------------------------------------------------------
# Chaos, stragglers, rebalancer
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_values_identical_across_modes(profile, seed):
    cent = computed_values(run_lr(seed=seed, chaos_profile=profile,
                                  chaos_seed=seed))
    dec = computed_values(run_lr(seed=seed, chaos_profile=profile,
                                 chaos_seed=seed, mode="decentralized"))
    assert dec == cent, f"{profile}/{seed}: chaos values diverged"


@pytest.mark.parametrize("seed", range(4))
def test_rebalancer_straggler_values_identical_across_modes(seed):
    kwargs = dict(seed=seed, iterations=16, rebalance=True,
                  straggler_scales={seed % 4: 3.0})
    cent = computed_values(run_lr(**kwargs))
    dec = computed_values(run_lr(mode="decentralized", **kwargs))
    assert dec == cent, f"seed {seed}: rebalanced values diverged"


# ---------------------------------------------------------------------------
# Mixed-mode multi-tenant pairs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("modes", [("centralized", "decentralized"),
                                   ("decentralized", "centralized")])
def test_mixed_mode_tenants_compute_solo_values(seed, modes):
    """Two co-scheduled tenants with different per-job scheduling modes
    each compute exactly what they compute running alone (and therefore
    exactly what the other mode computes)."""
    from .test_multitenant import (
        SHORT_ITERS,
        job_observables,
        run_solo,
        serve_cluster,
        small_lr_app,
    )

    app = small_lr_app(seed=seed)
    solo_a = run_solo(app, seed=seed)
    solo_b = run_solo(app, iterations=SHORT_ITERS, seed=seed)
    cluster = serve_cluster(app, seed=seed)
    a = cluster.jobs.submit(app.program(blocking=False), mode=modes[0])
    b = cluster.jobs.submit(app.program(blocking=False,
                                        iterations=SHORT_ITERS),
                            mode=modes[1])
    cluster.run_until_jobs_finished(max_seconds=1e6)
    assert job_observables(cluster, a.job_id, app) == solo_a, (
        f"seed {seed}: {modes[0]} tenant diverged from solo")
    assert job_observables(cluster, b.job_id, app) == solo_b, (
        f"seed {seed}: {modes[1]} tenant diverged from solo")


# ---------------------------------------------------------------------------
# Window mechanics
# ---------------------------------------------------------------------------
def test_steady_state_actually_self_schedules():
    cluster = run_lr(iterations=16, mode="decentralized")
    metrics = cluster.metrics
    grants = metrics.count("self_schedule_grants")
    instances = metrics.count("self_schedule_instances")
    assert grants > 0, "no window was ever granted"
    # windows batch many instances per grant — that is the whole saving
    assert instances > grants
    assert metrics.count("self_schedule.orphan_summaries") == 0


def test_centralized_mode_never_grants_windows():
    cluster = run_lr(iterations=16)
    assert cluster.metrics.count("self_schedule_grants") == 0
    assert cluster.metrics.count("self_schedule_instances") == 0


def test_centralized_job_rejects_a_window():
    """A centralized driver never sends windows; one that arrives is a
    protocol error, like a ``WindowSummary`` for a centralized job."""
    cluster = run_lr(iterations=8)
    window = P.InstantiateWindow("lr.iteration", 1, [(0, 0, {})])
    with pytest.raises(TypeError, match="is centralized but its driver"):
        cluster.controller.jobs[0].policy.accept(("window", window))


def test_controller_steady_messages_collapse_at_fig07_100():
    """The ISSUE's regression gate: on fig07@100 the decentralized
    controller sees ≤20% of the centralized steady-state message traffic
    (measured ~7%; the margin absorbs window-boundary effects)."""
    counts = {}
    for mode in ("centralized", "decentralized"):
        cluster = run_lr(workers=100, iterations=14,
                         partitions_per_worker=1, mode=mode)
        m = cluster.metrics
        counts[mode] = (m.count("controller.steady_messages_in")
                        + m.count("controller.steady_messages_out"))
    assert counts["centralized"] > 0
    ratio = counts["decentralized"] / counts["centralized"]
    assert ratio <= 0.20, (
        f"decentralized steady traffic is {ratio:.1%} of centralized "
        f"({counts['decentralized']} vs {counts['centralized']})")


def test_epoch_bump_stalls_and_resumes_without_changing_values():
    """A partition-map epoch bump mid-run is the controller reasserting
    ownership: any outstanding grant stalls at its next block boundary,
    is re-granted under the new epoch, and the run's values are
    untouched."""
    baseline = computed_values(run_lr(iterations=20))

    from repro.apps import LRApp, LRSpec
    spec = LRSpec(num_workers=4, iterations=20, partitions_per_worker=4)
    app = LRApp(spec)
    cluster = NimbusCluster(4, app.program(blocking=False),
                            registry=app.registry, seed=0,
                            mode="decentralized")
    cluster.sim.schedule_at(0.5, cluster.controller.bump_partition_epoch)
    cluster.run_until_finished(max_seconds=1e6)
    assert cluster.controller.pm_epoch >= 1
    assert computed_values(cluster) == baseline


def test_crashed_worker_releases_outstanding_window():
    """Regression (autoscaler bugfix 1): a worker crash-faulted while it
    holds part of an outstanding self-schedule window must have its
    granted-but-unfinished instances reclaimed. Before the fix the window
    never closed — the controller waited forever on summaries from the
    dead worker, ``outstanding_grants()`` stayed pinned at 1, and every
    partition-map change (eviction, migration, autoscaler drain) wedged
    on ``_require_quiesced``."""
    from repro.apps import LRApp, LRSpec
    spec = LRSpec(num_workers=4, iterations=24, partitions_per_worker=4)
    app = LRApp(spec)
    cluster = NimbusCluster(4, app.program(blocking=False),
                            registry=app.registry, seed=0,
                            mode="decentralized")
    ctrl = cluster.controller
    state = {}

    def crash():
        policy = ctrl.jobs[0].policy
        state["grants_before"] = policy.outstanding_grants()
        cluster.workers[3].fail()
        ctrl.membership.on_worker_dead(3)
        state["grants_after"] = policy.outstanding_grants()

    cluster.sim.schedule_at(0.5, crash)
    # data on the dead worker is unrecoverable without a checkpoint, so
    # the program cannot finish — but the control plane must not wedge:
    # run the event horizon dry and inspect the reclaim.
    cluster.driver.start()
    cluster.sim.run(until=30.0)
    assert state["grants_before"] == 1, "no window in flight at crash time"
    assert state["grants_after"] == 0, "crash left the window outstanding"
    assert 3 not in ctrl.live_workers
    assert cluster.metrics.count("self_schedule.reclaimed_instances") > 0
    # eviction re-homed the dead worker's template entries: nothing in
    # the current controller template still targets worker 3
    ctx = ctrl.jobs[0]
    for block_id, template in ctx.templates.items():
        workers = set(template.workers)
        assert 3 not in workers, f"{block_id} still targets the dead worker"


def test_decentralized_checkpoints_actually_commit():
    """Regression (autoscaler bugfix 1, second half): the window-summary
    completion path skipped the per-block checkpoint accounting, so a
    decentralized run with ``checkpoint_every`` set never committed a
    checkpoint (count stayed 0 before the fix) and crash recovery had
    nothing to restart from.

    40 iterations split into two windows (window_size=32), so the first
    window boundary — the only checkpointable quiesce point — lands
    mid-run and the checkpoint commits while the second window runs."""
    cluster = run_lr(iterations=40, mode="decentralized",
                     checkpoint_every=4)
    assert cluster.metrics.count("checkpoints_committed") > 0
    assert computed_values(cluster) == computed_values(
        run_lr(iterations=40, checkpoint_every=4))


def test_wait_queued_job_window_respects_dispatch_fifo():
    """Regression: a decentralized job admitted from the wait queue into
    a busy serve cluster reaches steady state while its own capture
    SubmitBlock for the next block is still parked in the fair-share
    dispatch queue. Its InstantiateWindow must queue behind that submit
    (FIFO within a job), not overtake it and try to instantiate a
    template that does not exist yet (KeyError before the fix: windows
    bypassed _gate_dispatch)."""
    from repro.apps.scenarios import run_job_arrival

    cent = run_job_arrival(num_workers=8, num_jobs=4, seed=0,
                           mode="centralized")
    dec = run_job_arrival(num_workers=8, num_jobs=4, seed=0,
                          mode="decentralized")
    assert dec["jobs_finished"] == cent["jobs_finished"] == 4
    assert dec["jobs_rejected"] == cent["jobs_rejected"] == 0
    assert dec["tasks_executed"] == cent["tasks_executed"]
    for c_job, d_job in zip(cent["per_job"], dec["per_job"]):
        assert d_job["tasks_scheduled"] == c_job["tasks_scheduled"], (
            f"job {d_job['job_id']} scheduled a different task count "
            f"decentralized")
