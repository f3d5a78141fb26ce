"""Footprint invariants: each cached control-plane decision is held once.

Structures, not bytes (allocation sizes differ between Python versions):
after a quick sharded LR run and a quick serve run,

* a worker half holds the controller half's own entry objects;
* the conflict tracker keeps no empty reader list (no entry means none);
* a template's directory delta holds one frozenset per distinct holder set;
* centrally dispatched commands carry tuple before sets, and a dispatch
  batch is a command list plus a set of reporting cids — no per-command
  tuple — whose commands share their ``(block_seq, report)`` metadata;
* an instance frame keeps a command-id base, not a per-instance id list;
* the object directory stores a sole holder of the latest version as the
  worker id, not as a one-entry ``{worker: version}`` map;
* a closed run's results dict is one object, shared by its block interval
  and the job's results history;
* a controller template is a table: the block's own task objects and one
  worker id per task, no per-task object of its own;
* a template set holds one precondition map, of sorted tuples; the
  by-object index and the task locations are derived on first use, and a
  set that was never migrated or rebalanced has no task locations;
* each object's size and home are facts on its directory record: no job
  context or placement holds a map keyed by object id, and an app's
  ``Variables`` keep one entry per variable, not a tuple per object.

Generating worker templates keeps little transient state beside what it
returns: it tracks only the objects the block writes, keeps a sole
holder or a lone reader as a bare index and collects preconditions
without sets, so its traced peak stays within 1.9 times what it keeps (a
ratio, about 1.7x on Python 3.11; the bound was set there only).

A drained central command stream leaves no conflict-tracker entry: each
command leaves the tracker as it completes (DESIGN.md §9).

A finished tenant's template sets, halves, frames and tracker entries go
with it (DESIGN.md §12), so the serve cluster has none left at its end:
the checks also look at it as it was while its last job still ran.
"""

import gc
import tracemalloc

import pytest

from repro.apps import LRApp, LRSpec
from repro.apps.scenarios import build_job_arrival
from repro.core.spec import LogicalTask
from repro.core.worker_template import generate_worker_templates
from repro.nimbus.commands import Command
from repro.nimbus.worker import Worker

from .helpers import lr_iteration_template, run_lr

pytestmark = pytest.mark.guard


def _frames(cluster):
    """The pooled frames of every compiled half."""
    return [frame for worker in cluster.workers.values()
            for half in worker._templates.values() if half._plan is not None
            for frame in half._plan.pool]


def _installed(cluster):
    """Each job's template sets, with the half each worker installed."""
    return [(job_id, wts, {w: cluster.workers[w]._templates.get(
                (job_id, wts.block_id, wts.version))
             for w in wts.installed_on})
            for job_id, ctx in cluster.controller.jobs.items()
            for wts in ctx.worker_templates.values()]


def _reader_maps(cluster):
    """A copy of every worker's readers-since map."""
    return [{oid: lst if lst.__class__ is int else list(lst)
             for oid, lst in worker.tracker._readers_since.items()}
            for worker in cluster.workers.values()]


def _per_object_maps(cluster):
    """Every map keyed by object id that a job context or its placement
    holds, as ``(job, holder, attribute)``."""
    found = []
    for job_id, ctx in cluster.controller.jobs.items():
        oids = set(ctx.directory.records())
        for holder in (ctx, ctx.placement):
            names = getattr(type(holder), "__slots__", ()) or vars(holder)
            for name in names:
                value = getattr(holder, name, None)
                if isinstance(value, dict) and oids & set(value):
                    found.append((job_id, type(holder).__name__, name))
    return found


@pytest.fixture(scope="module")
def runs():
    """The two clusters, every central dispatch batch a worker took, and
    the serve cluster's frames, reader lists, installed template sets and
    per-object maps while its last job still ran."""
    batches = []
    on_batch = Worker._on_dispatch_batch

    def recording(self, msg):
        batches.append(msg)
        on_batch(self, msg)

    Worker._on_dispatch_batch = recording
    try:
        lr = run_lr(workers=4, iterations=6, mode="sharded")
        serve, _names = build_job_arrival(num_workers=4, num_jobs=4)
        while serve.metrics.count("jobs_finished") < 3:
            assert serve.sim.step()
        live = {"frames": _frames(serve), "readers": _reader_maps(serve),
                "installed": _installed(serve),
                "per_object_maps": _per_object_maps(serve)}
        serve.run_until_jobs_finished(max_seconds=1e6)
    finally:
        Worker._on_dispatch_batch = on_batch
    return [lr, serve], batches, live


def test_worker_halves_share_the_controller_entries(runs):
    clusters, _, live = runs
    compared = {}
    for label, installed in (("lr", _installed(clusters[0])),
                             ("serve while running", live["installed"])):
        compared[label] = 0
        for job_id, wts, halves in installed:
            for worker, half in halves.items():
                if half is None:
                    continue
                mine = wts.entries[worker]
                assert len(half.entries) == len(mine)
                assert all(a is b for a, b in zip(half.entries, mine)), (
                    f"{label}: job {job_id} {wts.key} worker {worker}: the "
                    f"half holds copies of the controller's entries")
                compared[label] += len(mine)
    assert all(compared.values()), compared
    assert not _installed(clusters[1])  # finished tenants keep no set


def test_tracker_keeps_no_empty_reader_list(runs):
    clusters, _, live = runs
    maps = {"lr": _reader_maps(clusters[0]),
            "serve": _reader_maps(clusters[1]),
            "serve while running": live["readers"]}
    for label, readers_per_worker in maps.items():
        for wid, readers in enumerate(readers_per_worker):
            empty = [oid for oid, lst in readers.items() if lst == []]
            assert not empty, (
                f"{label}, worker {wid}: empty reader lists for {empty[:5]}")
    assert any(map(len, maps["lr"]))
    assert any(map(len, maps["serve while running"]))


def test_template_delta_interns_holder_sets(runs):
    clusters, _, live = runs
    shared = 0
    for installed in (_installed(clusters[0]), live["installed"]):
        for _job_id, wts, _halves in installed:
            holders = list(wts.delta.final_holders.values())
            distinct = set(holders)
            assert len({id(h) for h in holders}) == len(distinct), (
                f"{wts.key}: {len(holders)} holder sets, {len(distinct)} "
                f"distinct, held as more than one object each")
            shared += len(holders) - len(distinct)
    assert shared


def test_central_commands_carry_tuple_befores(runs):
    _, batches, _ = runs
    befores = [cmd.before for msg in batches for cmd in msg.commands]
    assert befores
    assert all(type(before) is tuple for before in befores)


def test_a_dispatch_batch_holds_no_per_command_tuple(runs):
    _, batches, _ = runs
    reported = 0
    for msg in batches:
        assert all(type(cmd) is Command for cmd in msg.commands)
        assert all(type(cid) is int for cid in msg.reports)
        for name, value in vars(msg).items():
            if isinstance(value, (list, tuple)):
                assert not any(type(x) is tuple for x in value), name
        reported += len(msg.reports)
    assert reported and reported < len(batches)


def test_a_batchs_commands_share_their_metadata(runs):
    _, batches, _ = runs
    shared = 0
    for msg in batches:
        for report in (False, True):
            metas = [cmd._wmeta for cmd in msg.commands
                     if (cmd.cid in msg.reports) is report]
            assert len({id(meta) for meta in metas}) <= 1, (
                f"run {msg.block_seq}: {len(metas)} commands, one "
                f"(block_seq, report) pair each")
            assert all(meta == (msg.block_seq, report) for meta in metas)
            shared += max(0, len(metas) - 1)
    assert shared


def test_frames_keep_a_cid_base_not_an_id_list(runs):
    clusters, _, live = runs
    lr, serve = _frames(clusters[0]), _frames(clusters[1]) + live["frames"]
    for frame in lr + serve:
        assert isinstance(frame.cid_base, int)
        assert not hasattr(frame, "cids")
    assert lr and live["frames"]


def test_directory_keeps_a_sole_holder_as_its_id(runs):
    clusters, _, _ = runs
    sole = 0
    for cluster in clusters:
        for job_id, ctx in cluster.controller.jobs.items():
            for rec in ctx.directory.records().values():
                held = rec.holders
                if type(held) is int:
                    sole += 1
                    continue
                assert not (len(held) == 1
                            and rec.latest in held.values()), (
                    f"job {job_id} {rec!r}: the sole holder of the latest "
                    f"version is kept as a map, {held}")
    assert sole


def test_a_closed_runs_results_are_held_once(runs):
    clusters, _, _ = runs
    closed = 0
    for cluster in clusters:
        for job_id, ctx in cluster.controller.jobs.items():
            blocks = ctx.metrics.intervals.get("block", [])
            assert len(blocks) == len(ctx.results_history)
            for interval, (_block_id, results) in zip(
                    blocks, ctx.results_history):
                assert interval.labels["results"] is results, (
                    f"job {job_id} run {interval.labels['seq']}: the history "
                    f"holds a copy of the interval's results")
                closed += 1
    assert closed


def test_a_controller_template_is_a_table(runs):
    clusters, _, _ = runs
    tables = [template for ctx in clusters[0].controller.jobs.values()
              for template in ctx.templates.values()]
    assert tables
    for template in tables:
        assert set(vars(template)) == {
            "block_id", "tasks", "workers", "returns", "assignment_version"}
        assert all(type(task) is LogicalTask for task in template.tasks)
        assert all(type(worker) is int for worker in template.workers)
        assert len(template.workers) == len(template.tasks)


def test_a_generated_sets_preconditions_are_sorted_tuples(runs):
    clusters, _, live = runs
    checked = 0
    for installed in (_installed(clusters[0]), live["installed"]):
        for job_id, wts, _halves in installed:
            for worker, oids in wts.preconditions.items():
                assert type(oids) is tuple, (job_id, wts.key, worker)
                assert list(oids) == sorted(set(oids))
                checked += len(oids)
    assert checked


def test_job_state_holds_no_per_object_map(runs):
    clusters, _, live = runs
    assert not live["per_object_maps"]
    for cluster in clusters:
        assert not _per_object_maps(cluster)
        assert any(ctx.directory.records()
                   for ctx in cluster.controller.jobs.values())


def test_variables_hold_no_per_object_tuple():
    variables = LRApp(LRSpec(num_workers=8, iterations=2)).variables
    definitions = variables.definitions
    declared = len({name for _oid, name, _p, _s, _h in definitions})
    assert len(definitions) > 4 * declared
    for name, value in vars(variables).items():
        if isinstance(value, (list, tuple, dict, set)):
            assert len(value) <= declared, name
    assert variables.definitions == definitions  # built again on demand


def test_a_template_set_holds_one_precondition_map(runs):
    clusters, _, live = runs
    checked = 0
    for installed in (_installed(clusters[0]), live["installed"]):
        for job_id, wts, _halves in installed:
            state = vars(wts)
            assert [name for name in state if "precondition" in name] == [
                "preconditions"], f"job {job_id} {wts.key}"
            assert state["_task_locations"] is None, (
                f"job {job_id} {wts.key}: task locations of a set no "
                f"migration or rebalancing pass read")
            by_oid = state["_by_oid"]
            if by_oid is not None:
                wts._by_oid = None
                assert by_oid == wts.precondition_index()
            checked += 1
    assert checked


def test_generation_keeps_most_of_what_it_allocates():
    template, sizes = lr_iteration_template(25)
    gc.collect()
    tracemalloc.start()
    try:
        wts = generate_worker_templates(template, sizes)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert wts.num_commands() > template.num_tasks
    assert peak <= 1.9 * kept, (
        f"generation peaked at {peak / kept:.2f}x what it keeps")


def test_a_drained_central_stream_leaves_the_tracker_empty():
    cluster = run_lr(workers=4, iterations=6, use_templates=False)
    assert cluster.metrics.count("template_instantiations") == 0
    assert sum(w.tasks_executed for w in cluster.workers.values())
    for wid, worker in cluster.workers.items():
        stats = worker.tracker.stats()
        assert (stats["writers"], stats["readers"]) == (0, 0), (wid, stats)
