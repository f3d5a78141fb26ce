"""Adaptive rebalancer: unit tests, the no-skew bit-identity property,
and end-to-end straggler convergence.

The determinism contract under test: with ``rebalance=True`` the observe
path is pure — timings ride in fixed-size message headers, no cost is
charged, no RNG is drawn — so on a *balanced* cluster the rebalancer
never trips and the run is bit-identical to a rebalancer-off run, across
seeds and under chaos. Only an actual straggler makes the runs diverge.
"""

import random

import pytest

from repro.apps import LRApp, LRSpec
from repro.nimbus import NimbusCluster
from repro.sched import GreedyLeastLoaded, LoadTracker

from .helpers import run_lr, virtual_results

LR_BLOCK = "lr.iteration"


# ---------------------------------------------------------------------------
# LoadTracker
# ---------------------------------------------------------------------------
def test_load_tracker_ewma():
    tracker = LoadTracker(alpha=0.5)
    tracker.observe(0, 10.0, {3: 4.0})
    assert tracker.load[0] == 10.0  # first sample seeds the average
    assert tracker.task_time[3] == 4.0
    tracker.observe(0, 20.0, {3: 8.0})
    assert tracker.load[0] == 15.0
    assert tracker.task_time[3] == 6.0
    assert tracker.samples[0] == 2
    assert tracker.min_samples([0, 1]) == 0  # worker 1 unseen
    tracker.reset()
    assert not tracker.load and not tracker.samples and not tracker.task_time


# ---------------------------------------------------------------------------
# GreedyLeastLoaded on synthetic observations
# ---------------------------------------------------------------------------
class FakeWTS:
    def __init__(self, task_locations):
        self.task_locations = task_locations


def make_skewed():
    """Workers 0/1 run two 10 ms tasks each; worker 2 runs two 21 ms
    tasks (a 2x straggler)."""
    tracker = LoadTracker()
    tracker.observe(0, 20.0, {0: 10.0, 1: 10.0})
    tracker.observe(1, 20.0, {2: 10.0, 3: 10.0})
    tracker.observe(2, 42.0, {4: 21.0, 5: 21.0})
    wts = FakeWTS({0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1),
                   4: (2, 0), 5: (2, 1)})
    return tracker, wts


def test_policy_is_quiet_on_balanced_load():
    tracker = LoadTracker()
    for w in range(3):
        tracker.observe(w, 20.0, {2 * w: 10.0, 2 * w + 1: 10.0})
    wts = FakeWTS({i: (i // 2, i % 2) for i in range(6)})
    policy = GreedyLeastLoaded(threshold=1.4, rng=random.Random(42))
    moves = policy.propose(tracker, wts, [0, 1, 2], max_moves=6,
                           conflict=lambda ct, dst: None, slots=8)
    assert moves == []


def test_policy_drains_the_straggler():
    tracker, wts = make_skewed()
    policy = GreedyLeastLoaded(threshold=1.4, rng=random.Random(42))
    moves = policy.propose(tracker, wts, [0, 1, 2], max_moves=6,
                           conflict=lambda ct, dst: None, slots=8)
    # both slow tasks leave worker 2 in ONE proposal (the straggler gates
    # the block until its last slow task is gone), spread across both
    # receivers; the healthy workers' tasks are left alone
    assert sorted(ct for ct, _ in moves) == [4, 5]
    assert sorted(dst for _, dst in moves) == [0, 1]


def test_policy_books_moved_tasks_at_projected_cost():
    """A task observed slow *because its worker was slow* must not make
    its destination look like a new straggler (that would stall the
    drain after one move)."""
    tracker, wts = make_skewed()
    policy = GreedyLeastLoaded(threshold=1.4, rng=random.Random(42))
    moves = policy.propose(tracker, wts, [0, 1, 2], max_moves=1,
                           conflict=lambda ct, dst: None, slots=8)
    assert len(moves) == 1  # budget-limited: proves the loop wanted more
    moves = policy.propose(tracker, wts, [0, 1, 2], max_moves=6,
                           conflict=lambda ct, dst: None, slots=8)
    assert len(moves) == 2


def test_policy_respects_conflicts():
    tracker, wts = make_skewed()
    policy = GreedyLeastLoaded(threshold=1.4, rng=random.Random(42))
    moves = policy.propose(
        tracker, wts, [0, 1, 2], max_moves=6,
        conflict=lambda ct, dst: "blocked" if dst == 0 else None, slots=8)
    assert moves and all(dst != 0 for _, dst in moves)


def test_policy_seeded_tie_breaks_are_reproducible():
    tracker, wts = make_skewed()
    results = []
    for _ in range(2):
        policy = GreedyLeastLoaded(threshold=1.4, rng=random.Random(7))
        results.append(policy.propose(tracker, wts, [0, 1, 2], max_moves=6,
                                      conflict=lambda ct, dst: None,
                                      slots=8))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Bit-identity: rebalancer-on with no skew == rebalancer-off
# ---------------------------------------------------------------------------
def test_rebalancer_is_bit_identical_without_skew_across_seeds():
    for seed in range(10):
        off = run_lr(seed=seed, rebalance=False)
        on = run_lr(seed=seed, rebalance=True)
        assert on.rebalancer.decisions == []
        assert virtual_results(on) == virtual_results(off), \
            f"seed {seed}: enabling the rebalancer changed the simulation"


@pytest.mark.parametrize("profile", ["light", "lossy", "hostile"])
def test_rebalancer_is_bit_identical_under_chaos(profile):
    for chaos_seed in (0, 1):
        off = run_lr(rebalance=False, chaos_profile=profile,
                     chaos_seed=chaos_seed)
        on = run_lr(rebalance=True, chaos_profile=profile,
                    chaos_seed=chaos_seed)
        assert on.rebalancer.decisions == []
        assert virtual_results(on) == virtual_results(off), \
            f"{profile}/seed {chaos_seed}: rebalancer changed a chaos run"


# ---------------------------------------------------------------------------
# End-to-end convergence on a real straggler
# ---------------------------------------------------------------------------
def _iteration_spacing(metrics):
    ends = sorted(iv.end for iv in metrics.intervals.get("driver_block", ())
                  if iv.labels.get("block_id") == LR_BLOCK
                  and not iv.labels.get("aborted"))
    return [b - a for a, b in zip(ends, ends[1:])]


def test_rebalancer_drains_a_static_straggler():
    straggler = 3
    cluster = run_lr(workers=4, iterations=20, rebalance=True,
                     straggler_scales={straggler: 2.0})
    rebalancer = cluster.rebalancer
    assert rebalancer.decisions, "the straggler never tripped the policy"
    assert all(mech == "edits" for (_t, _b, _mv, mech) in
               rebalancer.decisions)
    assert cluster.metrics.count("rebalance_moves") > 0
    # every gradient task left the straggler (entries 12..15 are worker
    # 3's gradient tasks at 4 partitions per worker)
    version = cluster.controller.jobs[0].current_version[LR_BLOCK]
    wts = cluster.controller.jobs[0].worker_templates[(LR_BLOCK, version)]
    still_there = [ct for ct in range(12, 16)
                   if wts.task_locations[ct][0] == straggler]
    assert not still_there
    # iteration time actually recovered: the last iterations run faster
    # than the degraded window right after templates installed
    spacing = _iteration_spacing(cluster.metrics)
    degraded = sum(spacing[4:7]) / 3
    recovered = sum(spacing[-3:]) / 3
    assert recovered < 0.8 * degraded


def test_rebalance_decisions_emit_trace_spans():
    spec = LRSpec(num_workers=4, iterations=20, partitions_per_worker=4)
    app = LRApp(spec)
    cluster = NimbusCluster(4, app.program(blocking=False),
                            registry=app.registry, rebalance=True,
                            straggler_scales={3: 2.0}, trace=True)
    cluster.run_until_finished(max_seconds=1e6)
    assert cluster.rebalancer.decisions
    spans = [ev for ev in cluster.tracer.events
             if ev[0] == "span" and ev[2] == "rebalance"]
    assert len(spans) == len(cluster.rebalancer.decisions)
    for ev in spans:
        assert ev[3] == "rebalance.decision"
        args = ev[7]
        assert args["mechanism"] == "edits"
        assert args["moves"] > 0
