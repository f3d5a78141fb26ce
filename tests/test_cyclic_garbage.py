"""Nothing a run produces is left to the cycle collector.

``Simulator.run()`` suspends automatic collection (DESIGN.md §13, "Memory
discipline"), so whatever the event loop drops must be freed by reference
counting alone: ownership of plans, frames, commands and job contexts is a
tree, with back-pointers cleared when a subtree is retired. Each scenario
is built outside :func:`cyclic_garbage` and run inside it; the tally of
unreachable objects the run leaves behind must be empty.

Programs come from the library apps. The oracle is switched off: it is an
observer and may allocate what it likes.
"""

import pytest

from repro.apps import LRApp, LRSpec, WaterApp, WaterSpec
from repro.nimbus import NimbusCluster
from repro.nimbus import protocol as P

from .helpers import cyclic_garbage

MODES = ["centralized", "decentralized", "sharded"]


@pytest.fixture(autouse=True)
def _oracle_off(monkeypatch):
    monkeypatch.delenv("REPRO_CROSS_CHECK", raising=False)


def _lr_app(workers=4, iterations=10):
    return LRApp(LRSpec(num_workers=workers, iterations=iterations,
                        partitions_per_worker=4))


def _assert_acyclic(found):
    assert not found, f"left to the cycle collector: {dict(found)}"


@pytest.mark.parametrize("mode", MODES)
def test_pipelined_lr_leaves_no_cycles(mode):
    app = _lr_app()
    cluster = NimbusCluster(4, app.program(), registry=app.registry,
                            mode=mode)
    with cyclic_garbage() as found:
        cluster.run_until_finished()
    assert cluster.metrics.count("worker.seam_hits") > 0
    _assert_acyclic(found)


@pytest.mark.parametrize("mode", ["centralized", "decentralized"])
def test_edited_plans_are_freed_at_the_edit(mode):
    """The lr_migrate shape: every other iteration a directive moves a
    task, the edited halves derive their next plans and retire the old
    ones, and a retired plan (the frames the derived plan did not adopt,
    the commands replaced in those it did, seams) must not outlive the
    edit."""
    workers, iterations = 4, 12
    app = _lr_app(workers, iterations)
    rounds = []

    def migrate(controller):
        task = len(rounds) % app.spec.num_partitions
        rounds.append(controller.migrate_tasks(
            "lr.iteration", [(task, (task + workers // 2) % workers)]))

    def program(job):
        yield job.define(app.variables.definitions)
        yield job.run(app.init_block)
        for i in range(iterations):
            if i >= 4 and i % 2 == 0:  # templates are installed by then
                cluster.controller.deliver(P.ManagerDirective(migrate))
            yield job.run(app.iteration_block, {"step": app.spec.step_size})

    cluster = NimbusCluster(workers, program, registry=app.registry,
                            mode=mode)
    with cyclic_garbage() as found:
        cluster.run_until_finished()
    assert rounds == ["edits"] * 4
    _assert_acyclic(found)


def test_patch_install_and_instantiate_leave_no_cycles():
    app = WaterApp(WaterSpec(num_workers=4, partitions_per_worker=2,
                             scale=0.002, frame_duration=0.004, frames=2))
    cluster = NimbusCluster(4, app.program(), registry=app.registry)
    with cyclic_garbage() as found:
        cluster.run_until_finished()
    assert cluster.metrics.count("patches_computed") > 0
    assert cluster.metrics.count("patch_cache_hits") > 0
    _assert_acyclic(found)


def test_cancelled_tenant_is_freed_on_release():
    app = _lr_app(workers=3, iterations=6)
    cluster = NimbusCluster(3, program=None, registry=app.registry)
    jobs = [cluster.jobs.submit(app.program()) for _ in range(3)]
    victim = jobs[1].job_id
    # mid-run: objects, templates, plans and frames of the victim exist
    cluster.sim.schedule_at(8.0, cluster.jobs.cancel, victim)
    with cyclic_garbage() as found:
        cluster.run_until_jobs_finished()
    assert cluster.jobs.records[victim].state == "cancelled"
    assert cluster.metrics.count("jobs_finished") == 2
    assert cluster.metrics.count("jobs.worker_releases") == 3
    _assert_acyclic(found)


def test_recovery_dismantles_abandoned_frames():
    workers, iterations = 3, 12
    app = _lr_app(workers, iterations)
    cluster = NimbusCluster(workers, app.program(blocking=True),
                            registry=app.registry, checkpoint_every=3,
                            heartbeat_timeout=0.5)
    cluster.start_fault_tolerance(heartbeat_interval=0.1, check_interval=0.2)
    # an iteration is ~2.7 virtual seconds: two checkpoints are committed
    cluster.sim.schedule_at(20.0, cluster.workers[workers - 1].fail)
    with cyclic_garbage() as found:
        cluster.run_until_finished(max_seconds=1e4)
    assert cluster.metrics.count("recoveries_completed") == 1
    _assert_acyclic(found)
