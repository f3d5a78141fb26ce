"""The retention contract: what a structure reaches, counted by type
(:func:`tests.helpers.reachable_histogram`), instead of guards that name
the fields a fix freed.

* **Steady state retains nothing per iteration.** LR at K and at 4K
  iterations, in each scheduling mode: the finished cluster reaches as
  many objects of every type, beside what it keeps per run by design —
  its metrics, each job's results history, the driver's iteration log —
  and the messages still in flight at the end. ``int`` and ``float`` are
  values, not structure (how many distinct ones exist depends on their
  magnitudes), so they are not compared.
* **A compiled plan is flat.** What a worker's plans, seams and pooled
  frames reach, up to the template entries they share with the halves,
  holds no ``Command`` and fewer tuples than it has positions: per
  position there are columns and one slim command per frame.
* **A frame is registered once.** A worker's pending registration
  reaches no int per frame position: a frame's commands are found by
  their cid range. And a central command carries only its kind's fields.
* **A record holds what its readers use.** A directory reaches one int
  per object (its id) beyond a few shared ones: changes between two
  stamp reads share one stamp, and no record keeps a partition number.
  A template entry holds only its kind's fields.
* **A finished tenant leaves its data.** Serving N against 2N small jobs
  grows, per added job, by its directory records and a job shell, and by
  no template entry, plan, frame or command.
"""

import sys

import pytest

from repro.apps import LRApp, LRSpec
from repro.apps.scenarios import build_job_arrival
from repro.core.compiled import CommandArena, FrameCommand
from repro.core.worker_template import TemplateEntry, generate_worker_templates
from repro.nimbus import NimbusCluster
from repro.nimbus.commands import (CentralCommand, CentralRecv, CentralSend,
                                   CentralTask, Command, CommandKind)
from repro.nimbus.data import LogicalObject, ObjectDirectory
from repro.sim.actor import Message
from repro.sim.metrics import Metrics

from .helpers import lr_iteration_template, reachable_histogram, run_lr

pytestmark = pytest.mark.guard

MODES = ("centralized", "decentralized", "sharded")
VALUES = {"int", "float"}


def _steady_histogram(iterations, mode):
    cluster = run_lr(workers=4, iterations=iterations, mode=mode)
    histories = [ctx.results_history
                 for ctx in cluster.controller.jobs.values()]
    return reachable_histogram(cluster, stop=[
        Metrics, Message, cluster.driver.iteration_log, *histories])


@pytest.mark.parametrize("mode", MODES)
def test_steady_iterations_retain_nothing(mode):
    k = _steady_histogram(8, mode)
    four_k = _steady_histogram(32, mode)
    grown = {name: four_k[name] - k[name] for name in four_k
             if name not in VALUES and four_k[name] > k[name]}
    assert not grown, f"{mode}: 24 more iterations retain {grown}"


def _compiled_layer(worker):
    """A worker's plans, seams and pooled frames; their positions; and
    what the entries hold (shared with the halves, not the plans')."""
    plans = [half._plan for half in worker._templates.values()
             if half._plan is not None]
    plans += [live[0] for live in worker._patches.values()]
    frames = [frame for plan in plans for frame in plan.pool or ()]
    positions = sum(plan.m for plan in plans) + sum(
        len(frame.cmds) for frame in frames)
    entries = [x for plan in plans for e in plan.live
               for x in (e.read, e.write, e.before)]
    return (plans, list(worker._seams.values()), frames), positions, entries


@pytest.mark.parametrize("mode", MODES)
def test_a_compiled_plan_holds_no_tuple_or_command_per_position(mode):
    cluster = run_lr(workers=4, iterations=8, mode=mode,
                     partitions_per_worker=16)
    for wid, worker in cluster.workers.items():
        root, positions, shared = _compiled_layer(worker)
        assert positions
        counts = reachable_histogram(root, stop=[TemplateEntry, *shared])
        assert counts["Command"] == 0, (wid, counts["Command"])
        assert counts["tuple"] < positions, (
            f"worker {wid}: {counts['tuple']} tuples for {positions} "
            f"positions")


def _registration_ints(worker):
    """The ints a worker's pending registration reaches, short of the
    frames and commands it points to."""
    return reachable_histogram(worker._pending, stop=[
        CommandArena, FrameCommand, Command, CentralCommand])["int"]


@pytest.mark.parametrize("mode", MODES)
def test_pending_registration_holds_nothing_per_frame_position(
        mode, monkeypatch):
    """Mid-run, with a compiled half on some worker: that worker holding
    one more instance in flight and holding four more reaches as many
    ints from its pending registration. The oracle is off: its
    per-command map is what this row rules out."""
    monkeypatch.delenv("REPRO_CROSS_CHECK", raising=False)
    app = LRApp(LRSpec(num_workers=4, iterations=8, partitions_per_worker=4))
    cluster = NimbusCluster(4, app.program(), registry=app.registry,
                            mode=mode)
    cluster.driver.start()
    compiled = []
    while not compiled:
        assert cluster.sim.step(), "the run ended before a plan compiled"
        compiled = [(worker, key, half)
                    for worker in cluster.workers.values()
                    for key, half in worker._templates.items()
                    if half._plan is not None]
    worker, (_job, block_id, version), half = compiled[0]
    stride = half._plan.m + 1
    counts = []
    for k in range(4):  # ids far from any the controller allocates
        worker._start_instance(half, block_id, version, -1 - k,
                               10 ** 12 + k * stride, -1, {})
        counts.append(_registration_ints(worker))
    assert counts[0] == counts[3], counts


def test_a_central_command_is_smaller_than_a_general_one():
    general = sys.getsizeof(Command(0, CommandKind.TASK, 0))
    tag = ("cid", 2)
    for cmd in (CentralTask(0, 0, "f", (1,), (2,), None),
                CentralSend(1, 0, 5, 1, tag, 8), CentralRecv(2, 1, 5, tag)):
        assert sys.getsizeof(cmd) < general, type(cmd).__name__


def test_a_directory_reaches_one_int_per_object():
    """n objects written, half of them copied, a third folded from a
    recorded delta, with a few validation marks read in between: the
    directory reaches the n oids and a few shared ints (versions, worker
    ids, a stamp per read), not one stamp per change."""
    n, base = 600, 10 ** 6  # oids far from the interpreter's small ints
    directory = ObjectDirectory()
    for i in range(n):
        directory.register(LogicalObject(base + i, 8), i % 4)
    for i in range(n):
        if i % 200 == 0:
            assert directory.stamp  # a validation's mark
        directory.record_write(base + i, i % 4)
        if i % 2:
            directory.record_copy(base + i, (i + 1) % 4)
    folded = range(base, base + n, 3)
    directory.apply_block_deltas(dict.fromkeys(folded, 1),
                                 dict.fromkeys(folded, frozenset({0})))
    directory.fold()
    ints = reachable_histogram(directory)["int"]
    assert ints <= n + 32, f"{ints} ints for {n} objects"


def test_a_template_entry_holds_only_its_kinds_fields():
    """Every generated entry, a task included, is smaller than the old
    entry that carried all thirteen fields of every kind."""
    old = type("AllKinds", (), {"__slots__": [f"f{i}" for i in range(13)]})
    template, sizes = lr_iteration_template(4)
    wts = generate_worker_templates(template, sizes)
    entries = [e for lst in wts.entries.values() for e in lst]
    assert {e.kind for e in entries} == {
        CommandKind.TASK, CommandKind.SEND, CommandKind.RECV}
    for entry in entries:
        assert sys.getsizeof(entry) < sys.getsizeof(old()), entry.kind


#: what a finished job must not keep: its templates, their plans and
#: frames, its patches and its commands
_DERIVED = {"TaskEntry", "SendEntry", "RecvEntry", "WorkerTemplateSet",
            "WorkerHalf", "ControllerTemplate", "CompiledPlan", "Seam",
            "CommandArena", "FrameCommand", "Patch", "Command",
            "CentralTask", "CentralSend", "CentralRecv"}


def _served(num_jobs):
    cluster, _names = build_job_arrival(num_workers=4, num_jobs=num_jobs,
                                        iterations=4)
    cluster.run_until_jobs_finished(max_seconds=1e6)
    records = sum(len(list(ctx.directory.objects()))
                  for ctx in cluster.controller.jobs.values())
    return reachable_histogram(cluster, stop=[Metrics, Message]), records


def test_serving_grows_per_job_only_by_its_data():
    (n_jobs, n_records), (two_n, two_n_records) = _served(3), _served(6)
    grown = {name: two_n[name] - n_jobs[name] for name in two_n
             if two_n[name] > n_jobs[name]}
    assert not grown.keys() & _DERIVED, grown
    assert grown["LogicalObject"] == two_n_records - n_records > 0
