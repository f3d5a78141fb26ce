"""Sharded control plane: three-mode parity and shard mechanics.

The contract (DESIGN.md §16): ``mode="sharded"`` inherits every
*decision* from the decentralized policy — validation, id allocation,
summary folding — and changes only the fan-out/fan-in *path*: per-worker
window grants pack into one ShardWindow per controller shard, shards
relay to their workers and aggregate the WindowSummaries, and the
coordinator's steady-state traffic per window collapses from O(workers)
to O(shards). These sweeps pin that down as bit-identity of
:func:`tests.helpers.computed_values` against both other modes, across
seeds, chaos profiles, the rebalancer, the autoscaler, and mixed-mode
co-scheduled tenants.

Also covered: the shard fan-in machinery itself (windows actually relay,
orphan guards fire instead of folding into dead jobs), the two causal
barriers that shard channels make necessary (a relayed window must not
overtake the coordinator's direct dispatch stream, and a relayed summary
must not overtake the worker's direct completions), and the coordinator
message-collapse gate at fig07@100.
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
from repro.nimbus.protocol import ReliableEndpoint

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
# 10-seed three-mode bit-identity sweeps
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_fig07_values_identical_across_three_modes(seed):
    cent = computed_values(run_lr(seed=seed))
    sharded = computed_values(run_lr(seed=seed, mode="sharded"))
    assert sharded == cent, f"seed {seed}: fig07 values diverged sharded"


@pytest.mark.parametrize("seed", SEEDS)
def test_fig08_values_identical_across_three_modes(seed):
    assert run_kmeans("sharded", seed) == run_kmeans(
        "centralized", seed), f"seed {seed}: fig08 values diverged"


@pytest.mark.parametrize("seed", SEEDS)
def test_rotation_values_identical_across_three_modes(seed):
    assert run_rotation("sharded", seed) == run_rotation(
        "centralized", seed), f"seed {seed}: rotation values diverged"


@pytest.mark.parametrize("seed", SEEDS)
def test_water_values_identical_across_three_modes(seed):
    assert run_water("sharded", seed) == run_water(
        "centralized", seed), f"seed {seed}: water values diverged"


# ---------------------------------------------------------------------------
# Chaos, stragglers, rebalancer, autoscaler
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_values_identical_across_three_modes(profile, seed):
    cent = computed_values(run_lr(seed=seed, chaos_profile=profile,
                                  chaos_seed=seed))
    sharded = computed_values(run_lr(seed=seed, chaos_profile=profile,
                                     chaos_seed=seed, mode="sharded"))
    assert sharded == cent, f"{profile}/{seed}: chaos values diverged"


@pytest.mark.parametrize("seed", range(4))
def test_rebalancer_straggler_values_identical_sharded(seed):
    kwargs = dict(seed=seed, iterations=16, rebalance=True,
                  straggler_scales={seed % 4: 3.0})
    cent = computed_values(run_lr(**kwargs))
    sharded = computed_values(run_lr(mode="sharded", **kwargs))
    assert sharded == cent, f"seed {seed}: rebalanced values diverged"


@pytest.mark.parametrize("seed", range(4))
def test_autoscale_values_identical_sharded(seed):
    kwargs = dict(seed=seed, iterations=12, autoscale=True)
    cent = computed_values(run_lr(**kwargs))
    sharded = computed_values(run_lr(mode="sharded", **kwargs))
    assert sharded == cent, f"seed {seed}: autoscaled values diverged"


# ---------------------------------------------------------------------------
# Mixed-mode multi-tenant pairs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("modes", [("sharded", "centralized"),
                                   ("sharded", "decentralized"),
                                   ("decentralized", "sharded")])
def test_mixed_mode_tenants_compute_solo_values(seed, modes):
    """Co-scheduled tenants mixing sharded with the other modes each
    compute exactly what they compute running alone."""
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
# Shard mechanics
# ---------------------------------------------------------------------------
def test_steady_state_actually_relays_through_shards():
    cluster = run_lr(iterations=16, mode="sharded")
    relayed = sum(s.windows_relayed for s in cluster.shards.values())
    folded = sum(s.summaries_folded for s in cluster.shards.values())
    assert relayed > 0, "no window was ever relayed through a shard"
    assert folded > 0, "no summary was ever folded at a shard"
    # every shard with traffic drained its fan-in state
    assert all(s.outstanding_windows() == 0 for s in cluster.shards.values())
    # the completion fold work landed on shards, never the coordinator:
    # the coordinator saw only the aggregated per-shard summaries
    m = cluster.metrics
    assert m.count("self_schedule_grants") > 0


def test_shard_count_defaults_scale_with_workers():
    from repro.nimbus.shard import default_shard_count
    assert default_shard_count(4) == 2
    assert default_shard_count(100) == 10
    assert default_shard_count(1000) == 16  # clamped
    cluster = run_lr(iterations=8, mode="sharded", shards=3)
    assert cluster.num_shards == 3
    assert len(cluster.shards) == 3


def test_controller_steady_messages_collapse_below_decentralized():
    """The tentpole gate at test scale: on fig07@100 the sharded
    coordinator sees strictly less steady-state traffic than the
    decentralized controller, which in turn is ≤20% of centralized."""
    counts = {}
    for mode in ("centralized", "decentralized", "sharded"):
        cluster = run_lr(workers=100, iterations=14,
                         partitions_per_worker=1, mode=mode)
        m = cluster.metrics
        counts[mode] = (m.count("controller.steady_messages_in")
                        + m.count("controller.steady_messages_out"))
    assert counts["sharded"] < counts["decentralized"] < counts["centralized"]
    ratio = counts["sharded"] / counts["centralized"]
    assert ratio <= 0.15, (
        f"sharded steady traffic is {ratio:.1%} of centralized "
        f"({counts['sharded']} vs {counts['centralized']})")


def test_epoch_bump_stalls_and_resumes_sharded():
    """A partition-map epoch bump mid-run stalls outstanding grants at
    the next block boundary; the re-grant travels through the owning
    shard (a one-grant ShardWindow) and values are untouched. pm_epoch ownership
    stays on the coordinator — shards never mint epochs."""
    baseline = computed_values(run_lr(iterations=20))

    from repro.apps import LRApp, LRSpec
    spec = LRSpec(num_workers=4, iterations=20, partitions_per_worker=4)
    app = LRApp(spec)
    cluster = NimbusCluster(4, app.program(blocking=False),
                            registry=app.registry, seed=0, mode="sharded")
    cluster.sim.schedule_at(0.5, cluster.controller.bump_partition_epoch)
    cluster.run_until_finished(max_seconds=1e6)
    assert cluster.controller.pm_epoch >= 1
    assert computed_values(cluster) == baseline


def test_crashed_worker_releases_outstanding_window_sharded():
    """A worker crash mid-window must reclaim its granted instances and
    abort the window's fan-in state on every shard, or the next
    partition-map change wedges on _require_quiesced."""
    from repro.apps import LRApp, LRSpec
    spec = LRSpec(num_workers=4, iterations=24, partitions_per_worker=4)
    app = LRApp(spec)
    cluster = NimbusCluster(4, app.program(blocking=False),
                            registry=app.registry, seed=0, mode="sharded")
    ctrl = cluster.controller
    state = {}

    def crash():
        policy = ctrl.jobs[0].policy
        state["grants_before"] = policy.outstanding_grants()
        cluster.workers[3].fail()
        ctrl.membership.on_worker_dead(3)
        state["grants_after"] = policy.outstanding_grants()

    cluster.sim.schedule_at(0.5, crash)
    cluster.driver.start()
    cluster.sim.run(until=30.0)
    assert state["grants_before"] == 1, "no window in flight at crash time"
    assert state["grants_after"] == 0, "crash left the window outstanding"
    assert 3 not in ctrl.live_workers
    assert cluster.metrics.count("self_schedule.reclaimed_instances") > 0
    # the abort reached the shards: no fan-in state left anywhere
    assert all(s.outstanding_windows() == 0 for s in cluster.shards.values())


def test_sharded_checkpoints_actually_commit():
    cluster = run_lr(iterations=40, mode="sharded", checkpoint_every=4)
    assert cluster.metrics.count("checkpoints_committed") > 0
    assert computed_values(cluster) == computed_values(
        run_lr(iterations=40, checkpoint_every=4))


def test_sharded_serve_matches_other_modes_through_job_arrival():
    from repro.apps.scenarios import run_job_arrival

    cent = run_job_arrival(num_workers=8, num_jobs=4, seed=0,
                           mode="centralized")
    sharded = run_job_arrival(num_workers=8, num_jobs=4, seed=0,
                              mode="sharded")
    assert sharded["jobs_finished"] == cent["jobs_finished"] == 4
    assert sharded["jobs_rejected"] == cent["jobs_rejected"] == 0
    assert sharded["tasks_executed"] == cent["tasks_executed"]
    for c_job, s_job in zip(cent["per_job"], sharded["per_job"]):
        assert s_job["tasks_scheduled"] == c_job["tasks_scheduled"], (
            f"job {s_job['job_id']} scheduled a different task count sharded")


# ---------------------------------------------------------------------------
# Causal barriers (the ordering the shard channels break)
# ---------------------------------------------------------------------------
def test_chaos_exercises_window_barrier_without_value_drift(monkeypatch):
    """Under heavy chaos a shard-relayed window overtakes the
    coordinator's retransmitting dispatch stream; the worker's transport
    holds it until the direct channel catches up. Before the barrier this
    seed deadlocked (instances registered into the conflict tracker ahead
    of the centrally-dispatched instances they depend on)."""
    cent = computed_values(run_lr(seed=3, chaos_profile="lossy",
                                  chaos_seed=3))
    held = set()
    unmet = ReliableEndpoint._rel_unmet

    def recording(endpoint, msg):
        if unmet(endpoint, msg):
            held.add((type(endpoint).__name__, type(msg).__name__))
            return True
        return False

    monkeypatch.setattr(ReliableEndpoint, "_rel_unmet", recording)
    cluster = run_lr(seed=3, chaos_profile="lossy", chaos_seed=3,
                     mode="sharded")
    assert computed_values(cluster) == cent
    assert cluster.job.finished
    assert ("Worker", "SelfScheduleWindow") in held, "no window was held"


def test_orphan_summary_guard_drops_aggregates_for_released_jobs():
    """A ShardWindowSummary whose job was released while the aggregate
    was in flight must be dropped whole, never folded into a dead
    namespace."""
    from repro.nimbus import protocol as P

    cluster = run_lr(iterations=8, mode="sharded")
    ctrl = cluster.controller
    # forge an aggregate for a job that does not exist
    summary = P.WindowSummary(0, 99, [], job_id=7)
    before = cluster.metrics.count("jobs.orphan_discards")
    ctrl.handle(P.ShardWindowSummary(0, 99, [summary], job_id=7))
    assert cluster.metrics.count("jobs.orphan_discards") == before + 1
    # and a shard-level orphan: a summary for a window the shard no
    # longer tracks is counted, not relayed
    shard = cluster.shards[0]
    before = cluster.metrics.count("shard.orphan_summaries")
    shard.handle(P.WindowSummary(0, 12345, [], job_id=0))
    assert cluster.metrics.count("shard.orphan_summaries") == before + 1
