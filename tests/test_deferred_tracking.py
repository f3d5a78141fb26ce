"""Deferred bookkeeping: the worker's conflict-tracker chain and the
controller's recorded directory deltas must be invisible.

Both defer the update a template instance makes (DESIGN.md §8, §9) and
fold it in before anything reads it. The sequences below mix every
operation that reads or breaks the deferral — on the worker: chained
instances of one half, instances of a second half, a patch, central
commands, completions in random order, a co-tenant's release, a halt; on
the controller: repeated and interleaved deltas, planned writes and
copies, reads, dirty-stamp checks and a migration — and hold each step
to an eager reference. A missing fold shows up as a difference here.
"""

import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.apps import LRApp, LRSpec
from repro.core.controller_template import ControllerTemplate
from repro.core.edits import plan_migrations
from repro.core.worker_template import TemplateEntry, generate_worker_templates
from repro.nimbus import protocol as P
from repro.nimbus.commands import CommandKind, make_task
from repro.nimbus.crosscheck import _successors
from repro.nimbus.data import LogicalObject, ObjectDirectory

from .helpers import WorkerDriver, run_lr

pytestmark = pytest.mark.guard

OTHER = "bench.other"


# ---------------------------------------------------------------------------
# Worker: the conflict tracker's chain
# ---------------------------------------------------------------------------
class _TrackerRun:
    """A real worker under the oracle — its tracker held to the eager
    shadow at every walk and fold, every instantiation's edges re-derived
    by ``FrameCheck`` — holding the busiest fig07 half twice (a second
    plan over the same objects), driven one operation at a time."""

    def __init__(self):
        with mock.patch.dict(os.environ, {"REPRO_CROSS_CHECK": "1"}):
            self.driver = WorkerDriver(8, 1)
        self.worker = worker = self.driver.worker
        self.tracker = worker.tracker
        assert self.tracker.shadow is not None
        half = worker._templates[(0, WorkerDriver.BLOCK, 0)]
        worker.handle(P.InstallWorkerTemplate(
            OTHER, 0, half.entries, sorted(half.reports)))
        self.objects = sorted({oid for e in half.entries if e is not None
                               for oid in e.read + e.write})
        self.inflight = []  # per instance or patch: the payloads it awaits
        self.next_cid = 10 ** 9

    def instance(self, block):
        driver, wid = self.driver, self.worker.worker_id
        i = driver.instances
        driver.instances += 1
        self.worker.handle(P.InstantiateWorkerTemplate(
            block, 0, i, (i + 1) * driver.stride, {}, i))
        self.inflight.append([((i, wid, e.index), e.write[0])
                              for e in driver.recvs])

    def patch(self):
        recv = self.driver.recvs[0]
        self.next_cid += 10
        tag = (f"patch-{self.next_cid}", self.worker.worker_id, 0)
        self.worker.handle(P.InstallPatch(
            self.next_cid, [TemplateEntry(0, CommandKind.RECV,
                                          write=recv.write, src_worker=0)],
            self.next_cid, tag[0]))
        self.inflight.append([(tag, recv.write[0])])

    def complete(self, k):
        if self.inflight:
            for tag, oid in self.inflight.pop(k % len(self.inflight)):
                self.worker.handle(P.DataMessage(tag, oid, None, 8))

    def central(self, reads, write, k):
        """Enqueue one central command; its dependencies must be what the
        eager tracker says they are."""
        objs = self.objects
        read = tuple(sorted({objs[r % len(objs)] for r in reads}))
        written = (objs[k % len(objs)],) if write else ()
        self.next_cid += 1
        cmd = make_task(self.next_cid, self.worker.worker_id, "__noop__",
                        read, written)
        expected = set()
        for oid in read + written:
            writer, readers = self.tracker.shadow.view(oid)
            expected.add(writer)
            if oid in written:
                expected.update(readers)
        expected.discard(None)
        self.worker._enqueue(cmd, (0, False))
        assert cmd._rem == len(expected)
        pending = self.worker._pending
        assert all(cmd in _successors(self.worker, pending[cid])
                   for cid in expected)

    def apply(self, op):
        kind = op[0]
        if kind == "a":
            self.instance(WorkerDriver.BLOCK)
        elif kind == "b":
            self.instance(OTHER)
        elif kind == "patch":
            self.patch()
        elif kind == "complete":
            self.complete(op[1])
        elif kind == "central":
            self.central(*op[1:])
        elif kind == "release":
            self.worker.handle(P.ReleaseJob(7, []))
        elif kind == "halt":
            self.worker.handle(P.Halt())
            self.inflight.clear()
        self.driver.sim.run()
        self.tracker.shadow.compare()  # every object it has seen


_WORKER_OPS = st.one_of(
    st.sampled_from(["a", "a", "a", "b", "patch", "release", "halt"]).map(
        lambda kind: (kind,)),
    st.tuples(st.just("complete"), st.integers(0, 7)),
    st.tuples(st.just("central"), st.lists(st.integers(0, 999), max_size=2),
              st.booleans(), st.integers(0, 999)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_WORKER_OPS, min_size=1, max_size=30))
def test_deferred_tracker_matches_the_eager_tracker(ops):
    run = _TrackerRun()
    for op in ops:
        run.apply(op)


def test_chained_replay_defers_then_folds_on_a_plan_switch():
    """A fixed sequence with every transition: a chain of one plan, a
    second plan (fold), back (fold), a central command (fold), a patch,
    a halt — and the chain is never more than the instances in flight."""
    run = _TrackerRun()
    for op in ["a", "a", "a", "b", "a", "a", ("central", [1], True, 2),
               "a", "patch", "a", "a", ("complete", 0), "a", "halt", "a",
               "a"]:
        run.apply(op if isinstance(op, tuple) else (op,))
        assert run.tracker.stats()["chain"] <= len(run.inflight) + 2


def test_a_fold_writes_no_completed_writer():
    """A chain folded after its instances drained leaves no last-writer
    entry: a completed net writer is never a dependency, and nor is any
    earlier writer of its objects, which it waited for."""
    run = _TrackerRun()
    for op in ["a", "a", ("complete", 0), ("complete", 0)]:
        run.apply(op if isinstance(op, tuple) else (op,))
    assert not run.worker._pending and run.tracker.stats()["chain"]
    run.apply(("b",))  # a plan switch: the drained chain folds
    assert run.tracker.folds and not run.tracker._last_writer


def test_seam_hit_step_makes_no_per_object_tracker_write():
    """Steady pipelined replay (depth 3): a seam-hit instantiation folds
    nothing, so the tracker's maps are not written at all — only the
    chain grows, and drained instances leave it."""
    driver = WorkerDriver(8, 3)
    tracker = driver.worker.tracker
    hits = driver.worker.metrics.count("worker.seam_hits")
    folds, before = tracker.folds, tracker.stats()
    for _ in range(5):
        driver.step()
    assert driver.worker.metrics.count("worker.seam_hits") == hits + 5
    assert tracker.folds == folds
    after = tracker.stats()
    assert {k: v for k, v in after.items() if k != "chain"} == \
        {k: v for k, v in before.items() if k != "chain"}
    assert 1 <= after["chain"] <= driver.depth + 1


def test_pipelined_lr_folds_per_plan_switch_not_per_instance():
    """Centralized fig07, 8 workers, 30 pipelined iterations: the central
    warm-up resolves command by command against an empty chain; after
    that each worker folds twice — its first template instance follows
    the warm-up's patch (a plan switch), and its half's plan then first
    follows itself before the seam is built — and never once per
    instance."""
    cluster = run_lr(workers=8, iterations=30)
    instances = cluster.metrics.count("template_instantiations")
    assert instances == 29
    assert [w.tracker.folds for w in cluster.workers.values()] == [2] * 8


# ---------------------------------------------------------------------------
# Controller: recorded directory deltas
# ---------------------------------------------------------------------------
class _EagerDirectory(ObjectDirectory):
    """The reference: every template delta applied the moment it lands."""

    def apply_block_deltas(self, write_counts, final_holders):
        for oid, bumps in write_counts.items():
            self.apply_block_delta(oid, bumps, final_holders[oid])


def _lr_templates(workers=3):
    """(app, sizes, [init, iteration] template sets) of a small fig07."""
    app = LRApp(LRSpec(num_workers=workers, iterations=1,
                       partitions_per_worker=2))
    home = {oid: h for oid, _n, _p, _s, h in app.variables.definitions}
    sizes = {oid: s for oid, _n, _p, s, _h in app.variables.definitions}
    sets = []
    for block in (app.init_block, app.iteration_block):
        assignment = []
        for _stage, task in block.all_tasks():
            anchor = task.write[0] if task.write else task.read[0]
            assignment.append(home[anchor] if home[anchor] is not None else 0)
        sets.append(generate_worker_templates(
            ControllerTemplate.from_block(block, assignment), sizes))
    return app, sizes, sets


def _directories(app):
    pair = (ObjectDirectory(), _EagerDirectory())
    for directory in pair:
        for oid, name, part, size, home in app.variables.definitions:
            directory.register(LogicalObject(oid, name, part, size),
                               home if home is not None else 0)
    return pair


def _reads(directory, oid, worker, mark):
    # the dirty check first: every read must fold on its own
    return (directory.stamp_of(oid) > mark,
            directory.latest_version(oid),
            sorted(directory.holders_of_latest(oid)),
            sorted(directory.holders(oid)),
            directory.is_fresh(oid, worker),
            worker in directory.holders(oid))


_DIRECTORY_OPS = st.one_of(
    st.tuples(st.just("delta"), st.integers(0, 1)),
    st.tuples(st.sampled_from(["write", "copy", "read", "evict"]),
              st.integers(0, 999), st.integers(0, 2)),
    st.tuples(st.just("mark")),
    # most moves are rejected (the destination already touches the
    # result): draw them often enough that some widen a recorded delta
    st.tuples(st.just("migrate"), st.integers(0, 999), st.integers(0, 2)),
    st.tuples(st.just("migrate"), st.integers(0, 999), st.integers(0, 2)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_DIRECTORY_OPS, min_size=1, max_size=40))
def test_recorded_deltas_read_like_applied_ones(ops):
    app, sizes, sets = _lr_templates()
    deferred, eager = pair = _directories(app)
    oids = sorted(obj.oid for obj in eager.objects())
    marks = [d.stamp for d in pair]
    iteration = sets[1]
    for op in ops:
        kind = op[0]
        if kind == "delta":
            for directory in pair:
                sets[op[1]].delta.apply(directory)
        elif kind == "mark":
            marks = [d.stamp for d in pair]
        elif kind == "migrate":
            ct_index = op[1] % len(iteration.task_locations)
            # the batch may reject the move; the delta is copied either way
            plan_migrations(iteration, [(ct_index, op[2])], sizes)
        elif kind == "evict":
            for directory in pair:
                directory.evict_worker(op[2])
        else:
            oid = oids[op[1] % len(oids)]
            if kind == "write":
                assert deferred.record_write(oid, op[2]) == \
                    eager.record_write(oid, op[2])
            elif kind == "copy":
                for directory in pair:
                    directory.record_copy(oid, op[2])
            got, want = (_reads(d, oid, op[2], m)
                         for d, m in zip(pair, marks))
            assert got == want, (op, got, want)
    assert deferred.snapshot() == eager.snapshot()
    for oid in oids:
        assert (deferred.stamp_of(oid) > marks[0]) == \
            (eager.stamp_of(oid) > marks[1])


def test_migration_while_deltas_are_recorded():
    """A migration that widens a delta's holder set lands between two
    recorded applications of that delta: the earlier ones must still fold
    with the holders they were recorded with."""
    app, sizes, sets = _lr_templates()
    iteration = sets[1]
    deferred, eager = pair = _directories(app)
    for directory in pair:
        iteration.delta.apply(directory)
        iteration.delta.apply(directory)
    before = dict(iteration.delta.final_holders)
    for ct_index in sorted(iteration.task_locations):
        for dst in range(3):
            batch = plan_migrations(iteration, [(ct_index, dst)], sizes)
            if batch.moves and iteration.delta.final_holders != before:
                break
        else:
            continue
        break
    assert iteration.delta.final_holders != before, "no move widened it"
    for oid in sorted(obj.oid for obj in eager.objects()):
        assert sorted(deferred.holders(oid)) == sorted(eager.holders(oid))
        assert deferred.latest_version(oid) == eager.latest_version(oid)
    for directory in pair:
        iteration.delta.apply(directory)
    assert deferred.snapshot() == eager.snapshot()
