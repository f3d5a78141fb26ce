"""Controller-level behavior tests: placement, checkpoint protocol,
validation-state transitions between alternating blocks."""

import pytest

from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.nimbus import NimbusCluster
from repro.nimbus import protocol as P

from .helpers import combine_registry, simple_define


def test_define_objects_honors_placement_hints():
    def program(job):
        yield job.define([(1, "a", 0, 8, 1), (2, "b", 0, 8, 0)])

    cluster = NimbusCluster(2, program, registry=combine_registry())
    cluster.run_until_finished(max_seconds=1e4)
    controller = cluster.controller
    assert controller.jobs[0].directory.home(1) == 1
    assert controller.jobs[0].directory.home(2) == 0
    assert controller.jobs[0].directory.holders_of_latest(1) == [1]
    # the objects physically exist at their homes
    assert 1 in cluster.workers[1].store
    assert 2 in cluster.workers[0].store


def test_checkpoint_commits_only_after_all_acks():
    blocks = [BlockSpec("b", [StageSpec("s", [
        LogicalTask("seed", read=(), write=(1,), param_slot="v")])])]

    def program(job):
        yield job.define(simple_define({1: ("x", 8)}))
        for _ in range(2):
            yield job.run(blocks[0], {"v": 1})

    cluster = NimbusCluster(3, program, registry=combine_registry(),
                            checkpoint_every=1)
    cluster.run_until_finished(max_seconds=1e4)
    # the program is done but checkpoint traffic may still be in flight
    cluster.sim.run(until=cluster.sim.now + 1.0)
    controller = cluster.controller
    assert controller.membership.last_committed_checkpoint is not None
    # a stale/duplicate ack for an old checkpoint is ignored
    before = controller.membership.last_committed_checkpoint
    controller.membership.on_checkpoint_ack(
        P.CheckpointAck(0, checkpoint_id=-5))
    assert controller.membership.last_committed_checkpoint == before


def test_alternating_blocks_never_auto_validate():
    """Auto-validation requires instantiating the *same* template again;
    alternating between two blocks always takes the full-validation path
    (Table 2's 7.3 µs case)."""
    block_a = BlockSpec("a", [StageSpec("s", [
        LogicalTask("combine", read=(1,), write=(2,))])])
    block_b = BlockSpec("b", [StageSpec("s", [
        LogicalTask("combine", read=(2,), write=(1,))])])

    def program(job):
        yield job.define(simple_define({1: ("x", 8), 2: ("y", 8)}))
        for _ in range(8):
            yield job.run(block_a)
            yield job.run(block_b)

    cluster = NimbusCluster(2, program, registry=combine_registry())
    cluster.run_until_finished(max_seconds=1e4)
    metrics = cluster.metrics
    assert metrics.count("auto_validations") == 0
    assert metrics.count("full_validations") >= 8


def test_repeating_block_auto_validates_after_install():
    block = BlockSpec("a", [StageSpec("s", [
        LogicalTask("combine", read=(1,), write=(1,))])])

    def program(job):
        yield job.define(simple_define({1: ("x", 8)}))
        for _ in range(10):
            yield job.run(block)

    cluster = NimbusCluster(2, program, registry=combine_registry())
    cluster.run_until_finished(max_seconds=1e4)
    metrics = cluster.metrics
    # 10 runs: 3 install phases, 1 full validation, 6 auto
    assert metrics.count("full_validations") == 1
    assert metrics.count("auto_validations") == 6


def test_prev_block_key_drives_patch_cache_keying():
    """Same violations after different predecessors are cached separately
    (a patch that is correct after block A may be wrong after block B)."""
    cluster = NimbusCluster(2, lambda job: iter(()),
                            registry=combine_registry())
    cache = cluster.controller.jobs[0].patch_cache
    from repro.core.patching import build_patch
    from repro.nimbus.data import LogicalObject, ObjectDirectory
    directory = ObjectDirectory()
    directory.register(LogicalObject(1, 8), home=0)
    patch = build_patch([(1, 1)], directory, {})
    cache.store("after-a", ("blk", 0), patch)
    assert cache.lookup("after-b", ("blk", 0), [(1, 1)], directory) is None
    assert cache.lookup("after-a", ("blk", 0), [(1, 1)], directory) is patch


def test_water_task_count_estimate_matches_execution():
    from repro.apps import WaterApp, WaterSpec

    spec = WaterSpec(num_workers=4, partitions_per_worker=2, scale=0.002,
                     frame_duration=0.004, reseed_every=3)
    app = WaterApp(spec)
    cluster = NimbusCluster(4, app.program(), registry=app.registry)
    cluster.run_until_finished(max_seconds=1e6)
    executed = cluster.metrics.count("tasks_executed")
    init_tasks = app.init_block.num_tasks
    estimate = app.expected_tasks_per_frame()
    # the analytic estimate tracks the actual execution within 15%
    # (it approximates the reduce-tree task counts)
    assert abs((executed - init_tasks) - estimate) / estimate < 0.15


def test_controller_counts_scheduled_tasks():
    block = BlockSpec("a", [StageSpec("s", [
        LogicalTask("combine", read=(), write=(1,)),
        LogicalTask("combine", read=(), write=(2,))])])

    def program(job):
        yield job.define(simple_define({1: ("x", 8), 2: ("y", 8)}))
        for _ in range(5):
            yield job.run(block)

    cluster = NimbusCluster(2, program, registry=combine_registry())
    cluster.run_until_finished(max_seconds=1e4)
    assert cluster.metrics.count("tasks_scheduled") == 10
    assert cluster.metrics.count("tasks_executed") == 10
