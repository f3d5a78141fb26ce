"""End-to-end dataflow integration tests on the full cluster.

These exercise the whole stack — driver program, controller scheduling and
templates, worker execution, direct data exchange — and check *values*, not
just timing: the templated execution must produce exactly what a sequential
interpreter of the program produces.
"""

import pytest

from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.nimbus import NimbusCluster
from repro.nimbus import protocol as P
from repro.nimbus.templates import PHASE_WT_INSTALLED

from .helpers import (
    combine_registry,
    reference_execute,
    run_program,
    simple_define,
    worker_values,
)


def diamond_blocks():
    """Seed two inputs; a diamond of combines; an in-place accumulator."""
    seed_block = BlockSpec("seed", [
        StageSpec("seed", [
            LogicalTask("seed", read=(), write=(1,), param_slot="a"),
            LogicalTask("seed", read=(), write=(2,), param_slot="b"),
            LogicalTask("seed", read=(), write=(9,), param_slot="acc"),
        ]),
    ])
    diamond_block = BlockSpec("diamond", [
        StageSpec("left", [LogicalTask("combine", read=(1,), write=(3,))]),
        StageSpec("right", [LogicalTask("combine", read=(2,), write=(4,))]),
        StageSpec("join", [LogicalTask("combine", read=(3, 4, 9), write=(9,))]),
    ], returns={"acc": 9})
    return seed_block, diamond_block


def diamond_program(iterations=4, params=None):
    seed_block, diamond_block = diamond_blocks()
    params = params or {"a": 5, "b": 11, "acc": 1}
    objects = {oid: (f"o{oid}", 8) for oid in (1, 2, 3, 4, 9)}

    def program(job):
        yield job.define(simple_define(objects))
        yield job.run(seed_block, params)
        for _ in range(iterations):
            yield job.run(diamond_block)

    return program, seed_block, diamond_block, params


def reference_final(iterations=4):
    program, seed_block, diamond_block, params = diamond_program(iterations)
    blocks = [(seed_block, params)] + [(diamond_block, {})] * iterations
    return reference_execute(blocks)


@pytest.mark.parametrize("use_templates", [True, False])
@pytest.mark.parametrize("num_workers", [1, 2, 3])
def test_matches_sequential_reference(use_templates, num_workers):
    program, *_ = diamond_program(iterations=4)
    cluster = run_program(program, combine_registry(),
                          num_workers=num_workers,
                          use_templates=use_templates)
    expected = reference_final(iterations=4)
    values = worker_values(cluster, [1, 2, 3, 4, 9])
    assert values == {oid: expected[oid] for oid in values}


def test_returned_values_reach_driver():
    program, seed_block, diamond_block, params = diamond_program(2)
    seen = []

    def checking_program(job):
        yield job.define(simple_define(
            {oid: (f"o{oid}", 8) for oid in (1, 2, 3, 4, 9)}))
        yield job.run(seed_block, params)
        for _ in range(3):
            res = yield job.run(diamond_block)
            seen.append(res["acc"])

    cluster = run_program(checking_program, combine_registry(), 2)
    reference = reference_execute(
        [(seed_block, params)] + [(diamond_block, {})] * 3)
    # each iteration's returned accumulator matches the reference prefix
    prefix = reference_execute([(seed_block, params), (diamond_block, {})])
    assert seen[-1] == reference[9]
    assert len(seen) == 3 and seen[0] == prefix[9]


def test_template_phase_progression():
    program, *_ = diamond_program(iterations=6)
    cluster = run_program(program, combine_registry(), 2)
    controller = cluster.controller
    assert controller._job0.phase["diamond"] == PHASE_WT_INSTALLED
    metrics = cluster.metrics
    # 6 iterations: capture, generate, install, then 3 templated runs
    template_runs = [iv for iv in metrics.intervals["block"]
                     if iv.labels["block_id"] == "diamond"
                     and iv.labels["mode"] == "template"]
    central_runs = [iv for iv in metrics.intervals["block"]
                    if iv.labels["block_id"] == "diamond"
                    and iv.labels["mode"] == "central"]
    assert len(central_runs) == 3
    assert len(template_runs) == 3


def test_steady_state_message_count_is_n_plus_1():
    """§2.2: once templates are installed and validated, one iteration
    costs one driver→controller message plus one message per worker."""
    program, *_ = diamond_program(iterations=10)
    registry = combine_registry()
    cluster = NimbusCluster(2, program, registry=registry, use_templates=True)
    counts = {}
    original = cluster.network.transmit

    def counting(src, dst, msg, depart):
        counts.setdefault(type(msg).__name__, 0)
        counts[type(msg).__name__] += 1
        original(src, dst, msg, depart)

    cluster.network.transmit = counting
    cluster.run_until_finished(max_seconds=1e5)

    # 11 submissions total: 2 SubmitBlock (seed capture + diamond capture),
    # 9 InstantiateBlock
    assert counts["SubmitBlock"] == 2
    assert counts["InstantiateBlock"] == 9
    # steady-state diamond iterations (7 of 10) cost one message per worker
    assert counts["InstantiateWorkerTemplate"] == 7 * 2
    # worker halves installed once per (block, worker with entries)
    assert counts["InstallWorkerTemplate"] >= 2
    # central dispatch happens only during installation-phase iterations
    assert counts["DispatchCommandBatch"] > 0


def test_non_blocking_posts_equal_blocking_results():
    seed_block, diamond_block = diamond_blocks()
    objects = {oid: (f"o{oid}", 8) for oid in (1, 2, 3, 4, 9)}
    params = {"a": 2, "b": 3, "acc": 1}

    def make_program(blocking):
        def program(job):
            yield job.define(simple_define(objects))
            yield job.run(seed_block, params)
            if blocking:
                for _ in range(5):
                    yield job.run(diamond_block)
            else:
                for _ in range(5):
                    job.post(diamond_block)
                yield job.drain()
        return program

    a = run_program(make_program(True), combine_registry(), 2)
    b = run_program(make_program(False), combine_registry(), 2)
    assert (worker_values(a, [9]) == worker_values(b, [9]))


def test_single_worker_cluster_works():
    program, *_ = diamond_program(iterations=3)
    cluster = run_program(program, combine_registry(), num_workers=1)
    assert cluster.job.finished


def test_deterministic_across_runs():
    program, *_ = diamond_program(iterations=5)
    a = run_program(program, combine_registry(), 3, seed=7)
    program2, *_ = diamond_program(iterations=5)
    b = run_program(program2, combine_registry(), 3, seed=7)
    assert a.sim.now == b.sim.now
    assert a.sim.events_run == b.sim.events_run
