"""Data-command lifecycle: create and destroy objects (§3.4)."""

import pytest

from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.nimbus import NimbusCluster

from .helpers import combine_registry, simple_define


def test_undefine_removes_objects_everywhere():
    block = BlockSpec("b", [StageSpec("s", [
        LogicalTask("combine", read=(1,), write=(2,))])])

    def program(job):
        yield job.define(simple_define({1: ("x", 8), 2: ("y", 8),
                                        3: ("z", 8)}))
        yield job.run(block)
        yield job.undefine([1, 2])

    cluster = NimbusCluster(2, program, registry=combine_registry())
    cluster.run_until_finished(max_seconds=1e4)
    directory = cluster.controller.directory
    assert 1 not in directory and 2 not in directory
    assert 3 in directory
    for worker in cluster.workers.values():
        assert 1 not in worker.store
        assert 2 not in worker.store


def test_undefine_unknown_object_is_harmless():
    def program(job):
        yield job.define(simple_define({1: ("x", 8)}))
        yield job.undefine([99])

    cluster = NimbusCluster(1, program, registry=combine_registry())
    assert cluster.run_until_finished(max_seconds=1e4).finished


def test_space_can_be_reused_after_undefine():
    """Dropping a dataset and defining a fresh one under new oids works —
    the staged-job pattern (load A, reduce to B, drop A, analyze B)."""
    block_a = BlockSpec("a", [StageSpec("s", [
        LogicalTask("seed", read=(), write=(1,), param_slot="v")])])
    block_b = BlockSpec("b", [StageSpec("s", [
        LogicalTask("combine", read=(10,), write=(11,))])],
        returns={"out": 11})
    results = []

    def program(job):
        yield job.define(simple_define({1: ("x", 8)}))
        yield job.run(block_a, {"v": 5})
        yield job.undefine([1])
        yield job.define(simple_define({10: ("p", 8), 11: ("q", 8)}))
        res = yield job.run(block_b)
        results.append(res["out"])

    cluster = NimbusCluster(2, program, registry=combine_registry())
    cluster.run_until_finished(max_seconds=1e4)
    assert results and results[0] is not None
    assert 1 not in cluster.controller.directory


def test_a_block_touching_an_undefined_object_names_it():
    """An undefined object takes its home with it: a later block that
    writes it fails with the same descriptive error as a never-defined
    object, not a bare ``KeyError`` from the directory's write."""
    first = BlockSpec("first", [StageSpec("s", [
        LogicalTask("combine", read=(1,), write=(2,))])])
    late = BlockSpec("late", [StageSpec("s", [
        LogicalTask("combine", read=(3,), write=(1,))])])

    def program(job):
        yield job.define(simple_define({1: ("x", 8), 2: ("y", 8),
                                        3: ("z", 8)}))
        yield job.run(first)
        yield job.undefine([1, 2])
        yield job.run(late)

    cluster = NimbusCluster(2, program, registry=combine_registry())
    with pytest.raises(KeyError, match=(
            r"job 0: cannot place a task touching unknown object id 1 "
            r"\(global id 1\); the job never defined it")):
        cluster.run_until_finished(max_seconds=1e4)
