"""Fused fast-path equivalence: batching and fusion are invisible.

An untraced run takes three wall-clock-only fast paths — fused actor
drain chains (``Actor._drain`` + ``Simulator.try_advance``), the
trusted-transport self-send (no retransmission bookkeeping while the
network is provably lossless), and worker task-start cohorts. A traced
run takes none of them: every hop is its own event, which is what the
tracer observes and the reference these sweeps hold fusion to. The two
must agree on every observable: virtual end time, every metrics counter,
the final value of every data object, and ``events_run`` (each fused hop
and cohort member is folded back into the count).

Seeded random-program sweeps traced vs untraced, under chaos, with the
rebalancer on, across co-scheduled tenants, and in cross-check mode.
"""

import pytest

from repro.chaos import PROFILES, FaultPlan
from repro.nimbus import NimbusCluster
from repro.sim.actor import cross_check_enabled

from .helpers import (
    combine_registry,
    random_combine_schedule,
    run_lr,
    simple_define,
    virtual_results,
    worker_values,
)

NUM_OBJECTS = 8
OIDS = list(range(1, NUM_OBJECTS + 1))
SEEDS = range(10)


def _run(seed, fused, chaos_profile=None, num_workers=3):
    """One random combine program, untraced (``fused``) or traced; every
    observable, event count included."""
    seed_block, params, blocks, iterations = random_combine_schedule(
        seed, OIDS)

    def program(job):
        yield job.define(simple_define(
            {oid: (f"o{oid}", 8) for oid in OIDS}))
        yield job.run(seed_block, params)
        for _ in range(iterations):
            for block in blocks:
                yield job.run(block)

    kwargs = {}
    if chaos_profile is not None:
        kwargs["chaos_plan"] = FaultPlan.from_profile(chaos_profile,
                                                      seed=seed)
    cluster = NimbusCluster(num_workers, program,
                            registry=combine_registry(),
                            trace=not fused, **kwargs)
    cluster.run_until_finished(max_seconds=1e6)
    return (
        cluster.metrics.counters_snapshot(),
        cluster.sim.now,
        worker_values(cluster, OIDS),
        cluster.sim.events_run,
    )


def test_cross_check_switch_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_CROSS_CHECK", raising=False)
    assert not cross_check_enabled()
    for off in ("0", ""):
        monkeypatch.setenv("REPRO_CROSS_CHECK", off)
        assert not cross_check_enabled()
    monkeypatch.setenv("REPRO_CROSS_CHECK", "1")
    assert cross_check_enabled()


@pytest.mark.parametrize("seed", SEEDS)
def test_fused_matches_unfused(seed):
    assert _run(seed, True) == _run(seed, False), \
        f"seed {seed}: fused and traced runs diverged"


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("seed", [3, 11])
def test_fused_matches_unfused_under_chaos(profile, seed):
    # chaos networks are never lossless, so this exercises drain fusion
    # and task cohorts with the trusted transport forced off
    assert _run(seed, True, chaos_profile=profile) == \
        _run(seed, False, chaos_profile=profile), \
        f"seed {seed} profile {profile}"


@pytest.mark.parametrize("seed", [0, 5])
def test_fused_lr_with_rebalancer_on(seed):
    kwargs = dict(seed=seed, rebalance=True,
                  straggler_scales={seed % 4: 3.0})
    fused = virtual_results(run_lr(trace=False, **kwargs),
                            "lr.iteration", skip=4)
    unfused = virtual_results(run_lr(trace=True, **kwargs),
                              "lr.iteration", skip=4)
    assert fused == unfused, f"seed {seed}: rebalancer run diverged"


@pytest.mark.parametrize("seed", [1, 7])
def test_fused_multitenant_pair_identical(seed):
    from .test_multitenant import run_pair, small_lr_app

    app = small_lr_app(seed=seed)
    fused = run_pair(app, seed=seed, trace=False)
    unfused = run_pair(app, seed=seed, trace=True)
    assert fused == unfused, f"seed {seed}: co-tenant values diverged"


def test_cross_check_mode_validates_every_fused_hop(monkeypatch):
    """REPRO_CROSS_CHECK re-derives each fused drain hop's safety from
    the raw event queues; a clean run means they all agreed."""
    monkeypatch.setenv("REPRO_CROSS_CHECK", "1")
    checked = _run(7, True)
    monkeypatch.delenv("REPRO_CROSS_CHECK")
    assert checked == _run(7, False), "cross-check seed 7"


def test_trusted_transport_stays_off_after_partition():
    """A partition flips Network.lossless off permanently, so the fused
    send path can never race a heal."""
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

    net = Network(Simulator())
    assert net.lossless
    net.partition("w0")
    net.heal("w0")
    assert not net.lossless
