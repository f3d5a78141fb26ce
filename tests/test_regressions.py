"""Regression tests pinning bugs found during development.

The migration bugs (1-3) were discovered by the hypothesis property
suite (tests/test_properties.py); the error-reporting regressions (4)
came out of the multi-tenant work, where bare ``KeyError: <id>``
messages made cross-job failures undebuggable. Each is kept as an
explicit, minimal reproducer with the story of what went wrong.
"""

import pytest

from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.nimbus import NimbusCluster
from repro.nimbus import protocol as P

from .helpers import (
    combine_registry,
    reference_execute,
    run_lr,
    simple_define,
    worker_values,
)

OIDS = list(range(1, 5))


def run_migrating(block, move, iterations=6, num_workers=3):
    seed_block = BlockSpec("seedblk", [StageSpec("seed", [
        LogicalTask("seed", read=(), write=(oid,), param_slot=f"v{oid}")
        for oid in OIDS
    ])])
    params = {f"v{oid}": 1 for oid in OIDS}
    expected = reference_execute(
        [(seed_block, params)] + [(block, {})] * iterations)
    box = {}

    def migrate(controller):
        controller.edit_threshold = 1.0
        controller.migrate_tasks(block.block_id, [move])

    def program(job):
        yield job.define(simple_define(
            {oid: (f"o{oid}", 8) for oid in OIDS}))
        yield job.run(seed_block, params)
        for i in range(iterations):
            if i == 4:
                box["cluster"].controller.deliver(P.ManagerDirective(migrate))
            yield job.run(block)

    cluster = NimbusCluster(num_workers, program,
                            registry=combine_registry(), use_templates=True)
    box["cluster"] = cluster
    cluster.run_until_finished(max_seconds=1e6)
    return cluster, expected


def test_bug1_migration_to_uninstalled_worker_does_not_double_apply():
    """Bug 1: migrating a task to a worker that had no entries in the
    template shipped the already-edited controller half at install time
    AND re-applied the pending edits at instantiation, corrupting the
    entry array ("append index != array length"). Fixed by dropping
    pending edits for a worker when its half is freshly installed."""
    block = BlockSpec("mig1", [StageSpec("s0", [
        LogicalTask("combine", read=(1,), write=(2,)),
    ])])
    # worker 2 has no entries in this template until the migration
    cluster, expected = run_migrating(block, move=(0, 2))
    values = worker_values(cluster, OIDS)
    assert values == {oid: expected.get(oid) for oid in OIDS}
    wts_key = ("mig1", cluster.controller.current_version["mig1"])
    wts = cluster.controller.worker_templates[wts_key]
    assert wts.task_locations[0][0] == 2


def test_bug2_migrating_read_modify_write_task_does_not_deadlock():
    """Bug 2: migrating a task that reads and writes the same object put
    the result RECV (low index) before the input SEND (appended) on the
    source worker; the conflict tracker then ordered the send after the
    recv while the recv's data transitively required the send — a cycle.
    Fixed by two-pass batch resolution with forward before-references and
    intra-batch tracker suppression."""
    block = BlockSpec("mig2", [StageSpec("s0", [
        LogicalTask("combine", read=(2,), write=(2,)),  # read-modify-write
        LogicalTask("combine", read=(), write=(1,)),
    ])])
    cluster, expected = run_migrating(block, move=(0, 0))
    values = worker_values(cluster, OIDS)
    assert values == {oid: expected.get(oid) for oid in OIDS}


def test_bug4_unknown_object_placement_error_names_job_and_ids():
    """Bug 4 (multi-tenant hardening): a task referencing an object its job
    never defined used to surface as a bare ``KeyError: <oid>`` from the
    placement map — useless when several jobs share the controller. The
    error must now name the job, the job-local id, and the global id."""
    cluster = run_lr(workers=2, iterations=2)
    with pytest.raises(KeyError, match=(
            r"job 0: cannot place a task touching unknown object id 999999 "
            r"\(global id 999999\); the job never defined it")):
        cluster.controller.central.assign_worker(
            cluster.controller._job0, read=(999999,), write=())


def test_bug4_unknown_block_instantiation_error_lists_installed_blocks():
    """Instantiating a block with no installed controller template must
    name the job and enumerate what IS installed, not KeyError on a dict."""
    cluster = run_lr(workers=2, iterations=2)
    controller = cluster.controller
    msg = P.InstantiateBlock("ghost", 0, 0, {})
    with pytest.raises(KeyError) as err:
        controller.cache.instantiate(controller._job0, msg)
    text = str(err.value)
    assert "job 0: no controller template installed for block 'ghost'" in text
    assert "installed blocks:" in text
    assert "lr.iteration" in text  # the real suspects are listed


def test_bug4_migration_errors_name_the_job():
    """migrate_tasks must distinguish \"no such job\" from \"job exists but
    the block's template was never captured\" — and say which job."""
    cluster = run_lr(workers=2, iterations=2)
    with pytest.raises(KeyError, match=(
            r"cannot migrate tasks of block 'x': job 99 is not registered "
            r"\(live jobs: \[0\]\)")):
        cluster.controller.migrate_tasks("x", [], job_id=99)
    with pytest.raises(KeyError, match=(
            r"job 0: cannot migrate tasks of block 'ghost': no controller "
            r"template captured yet")):
        cluster.controller.migrate_tasks("ghost", [], job_id=0)


def test_bug4_worker_unknown_template_error_names_job_and_version():
    """A worker asked to instantiate a template it never had installed
    must report the worker, the requesting job, and the (block, version)
    pair — the raw dict KeyError hid all three."""
    cluster = run_lr(workers=2, iterations=2)
    worker = cluster.workers[0]
    msg = P.InstantiateWorkerTemplate("ghost", 0, instance_id=10**9,
                                      cid_base=10**9, params={}, block_seq=0,
                                      job_id=7)
    with pytest.raises(KeyError) as err:
        worker._on_instantiate_template(msg)
    text = str(err.value)
    assert ("worker 0: job 7 asked to instantiate template ('ghost', v0) "
            "which was never installed here") in text


def test_bug3_intermediate_result_not_marked_final_holder():
    """Bug 3: when a later task overwrites the migrated task's result, the
    destination's copied-back value is an *intermediate* version; marking
    the destination a final holder let later readers patch stale data."""
    block = BlockSpec("mig3", [StageSpec("s0", [
        LogicalTask("combine", read=(1,), write=(2,)),   # migrated
        LogicalTask("combine", read=(2,), write=(2,)),   # overwrites result
    ])])
    cluster, expected = run_migrating(block, move=(0, 2))
    values = worker_values(cluster, OIDS)
    assert values == {oid: expected.get(oid) for oid in OIDS}
