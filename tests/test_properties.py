"""Property-based tests (hypothesis) on the core template machinery.

The central invariants:

1. **Generation soundness** — for any block and assignment, every read in a
   worker template is preceded (locally) by the write or receive providing
   it, or is a declared precondition; copy pairs are correctly matched.
2. **Closure** — applying a template's own directory delta to a state that
   satisfies its preconditions yields a state that still satisfies them
   (this is what makes auto-validation sound).
3. **Execution equivalence** — running a random program on the full
   simulated cluster (templates on, any worker count) produces exactly the
   values of a sequential interpreter.
4. **Patching** — for any directory state, the built patch repairs every
   validation violation.
5. **The directory's encoding is invisible** — under any sequence of
   mutations, every query answers as a plain dict-of-dicts model does.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.controller_template import ControllerTemplate
from repro.core.patching import build_patch
from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.core.validation import full_validate
from repro.core.worker_template import generate_worker_templates
from repro.nimbus.commands import CommandKind
from repro.nimbus.data import LogicalObject, ObjectDirectory
from repro.nimbus import NimbusCluster

from .helpers import combine_registry, reference_execute, simple_define

NUM_OBJECTS = 8
OIDS = list(range(1, NUM_OBJECTS + 1))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def random_block(draw, max_tasks=10, block_id="rand"):
    """A random basic block over a small object set (single-write tasks)."""
    num_tasks = draw(st.integers(1, max_tasks))
    tasks = []
    for _ in range(num_tasks):
        reads = draw(st.lists(st.sampled_from(OIDS), max_size=3, unique=True))
        write = draw(st.sampled_from(OIDS))
        tasks.append(LogicalTask("combine", read=tuple(reads), write=(write,)))
    # split into 1-3 stages
    num_stages = draw(st.integers(1, min(3, num_tasks)))
    bounds = sorted(draw(st.lists(
        st.integers(1, num_tasks - 1), max_size=num_stages - 1,
        unique=True))) if num_tasks > 1 else []
    stages, prev = [], 0
    for i, bound in enumerate(bounds + [num_tasks]):
        stages.append(StageSpec(f"s{i}", tasks[prev:bound]))
        prev = bound
    stages = [s for s in stages if s.tasks]
    return BlockSpec(block_id, stages)


@st.composite
def block_and_assignment(draw, num_workers=3):
    block = draw(random_block())
    assignment = [draw(st.integers(0, num_workers - 1))
                  for _ in range(block.num_tasks)]
    return block, assignment


# ---------------------------------------------------------------------------
# 1. Generation soundness
# ---------------------------------------------------------------------------
@given(block_and_assignment())
@settings(max_examples=120, deadline=None)
def test_generation_soundness(block_assignment):
    block, assignment = block_assignment
    template = ControllerTemplate.from_block(block, assignment)
    wts = generate_worker_templates(template, {oid: 8 for oid in OIDS})

    for worker, entries in wts.entries.items():
        provided: Dict[int, int] = {}  # oid -> providing local index
        for local_index, entry in enumerate(entries):
            assert entry.index == local_index
            for dep in entry.before:
                assert 0 <= dep < entry.index, "before sets point backward"
            for oid in entry.read:
                if oid in provided:
                    # a local provider exists and is ordered before (via
                    # before sets or transitively); at minimum it's earlier
                    assert provided[oid] < entry.index
                else:
                    assert oid in wts.preconditions.get(worker, frozenset()), (
                        f"read of {oid} on worker {worker} has no provider "
                        f"and is not a precondition")
            for oid in entry.write:
                provided[oid] = entry.index
            if entry.kind == CommandKind.SEND:
                recv = wts.entries[entry.dst_worker][entry.dst_index]
                assert recv.kind == CommandKind.RECV
                assert recv.src_worker == worker
                assert recv.write == entry.read

    # every controller-template task appears exactly once
    task_entries = [e for entries in wts.entries.values() for e in entries
                    if e.kind == CommandKind.TASK]
    assert len(task_entries) == template.num_tasks


# ---------------------------------------------------------------------------
# 2. Closure: preconditions are invariant under the template's own delta
# ---------------------------------------------------------------------------
@given(block_and_assignment())
@settings(max_examples=120, deadline=None)
def test_closure_invariant(block_assignment):
    block, assignment = block_assignment
    template = ControllerTemplate.from_block(block, assignment)
    wts = generate_worker_templates(template, {})
    directory = ObjectDirectory()
    for oid in OIDS:
        directory.register(LogicalObject(oid, f"o{oid}", 0, 8), home=0)
    # bring the state to one satisfying the preconditions (patch if needed)
    violations = full_validate(wts, directory)
    if violations:
        patch = build_patch(violations, directory, {})
        patch.apply_to_directory(directory)
    assert full_validate(wts, directory) == []
    # run the template several times: preconditions must keep holding
    for _ in range(3):
        wts.delta.apply(directory)
        assert full_validate(wts, directory) == []


# ---------------------------------------------------------------------------
# 3. Execution equivalence against the sequential interpreter
# ---------------------------------------------------------------------------
@given(
    blocks=st.lists(random_block(max_tasks=6), min_size=1, max_size=2),
    num_workers=st.integers(1, 3),
    iterations=st.integers(1, 3),
    seeds=st.lists(st.integers(1, 100), min_size=NUM_OBJECTS,
                   max_size=NUM_OBJECTS),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cluster_matches_sequential_interpreter(blocks, num_workers,
                                                iterations, seeds):
    for i, block in enumerate(blocks):
        block.block_id = f"rand{i}"
    seed_block = BlockSpec("seedblk", [StageSpec("seed", [
        LogicalTask("seed", read=(), write=(oid,), param_slot=f"v{oid}")
        for oid in OIDS
    ])])
    params = {f"v{oid}": seeds[i] for i, oid in enumerate(OIDS)}
    schedule = [(seed_block, params)]
    for _ in range(iterations):
        for block in blocks:
            schedule.append((block, {}))
    expected = reference_execute(schedule)

    def program(job):
        yield job.define(simple_define(
            {oid: (f"o{oid}", 8) for oid in OIDS}))
        for block, block_params in schedule:
            yield job.run(block, block_params)

    cluster = NimbusCluster(num_workers, program,
                            registry=combine_registry(), use_templates=True)
    cluster.run_until_finished(max_seconds=1e6)
    directory = cluster.controller.jobs[0].directory
    for oid in OIDS:
        holders = directory.holders_of_latest(oid)
        assert holders
        value = cluster.workers[min(holders)].store.get(oid)
        assert value == expected.get(oid), (
            f"object {oid}: cluster={value} reference={expected.get(oid)}")


# ---------------------------------------------------------------------------
# 4. Patching repairs arbitrary violation sets
# ---------------------------------------------------------------------------
@given(
    writes=st.lists(
        st.tuples(st.sampled_from(OIDS), st.integers(0, 3)),
        max_size=12),
    copies=st.lists(
        st.tuples(st.sampled_from(OIDS), st.integers(0, 3)),
        max_size=12),
    block_assignment=block_and_assignment(num_workers=4),
)
@settings(max_examples=120, deadline=None)
def test_patch_repairs_any_state(writes, copies, block_assignment):
    block, assignment = block_assignment
    template = ControllerTemplate.from_block(block, assignment)
    wts = generate_worker_templates(template, {})
    directory = ObjectDirectory()
    for oid in OIDS:
        directory.register(LogicalObject(oid, f"o{oid}", 0, 8), home=0)
    for oid, worker in writes:
        directory.record_write(oid, worker)
    for oid, worker in copies:
        directory.record_copy(oid, worker)
    violations = full_validate(wts, directory)
    if violations:
        patch = build_patch(violations, directory, {})
        patch.apply_to_directory(directory)
    assert full_validate(wts, directory) == []


# ---------------------------------------------------------------------------
# 5. The directory answers like a plain dict-of-dicts model
# ---------------------------------------------------------------------------
DIR_OIDS = range(1, 6)
DIR_WORKERS = range(3)


class _ModelDirectory:
    """The directory as a ``{oid: {worker: version}}`` map beside an
    ``{oid: latest}`` map, an ``{oid: stamp}`` map and an ``{oid: home}``
    map, with none of the encoding: the specification
    :class:`ObjectDirectory` must answer like. Recorded deltas fold in
    order of their last application, each applied ``times`` times at
    once; every change of version or holders takes the next stamp. A home
    outlives its object's unregistration (a restore brings it back with
    it) but is answered only while the object is registered, and moving
    it is no change of state."""

    def __init__(self):
        self.latest, self.holders, self.stamps = {}, {}, {}
        self.homes = {}
        self.stamp = 0
        self.pending = []

    def touch(self, oid):
        self.stamp += 1
        self.stamps[oid] = self.stamp

    def fold(self):
        order = {}  # by identity: two equal deltas are still two
        for delta in self.pending:
            order.pop(id(delta), None)
            order[id(delta)] = delta
        for delta in order.values():
            times = sum(d is delta for d in self.pending)
            write_counts, final_holders = delta
            for oid, bumps in write_counts.items():
                latest = self.latest[oid] + bumps * times
                self.latest[oid] = latest
                self.holders[oid] = {w: latest for w in final_holders[oid]}
                self.touch(oid)
        self.pending = []

    def register(self, oid, home):
        self.latest[oid] = 0
        self.holders[oid] = {home: 0}
        self.homes[oid] = home
        self.touch(oid)

    def rehome(self, oid, worker):
        self.homes[oid] = worker

    def unregister(self, oid):
        self.latest.pop(oid, None)
        self.holders.pop(oid, None)
        if oid in self.stamps:  # every oid here was registered once
            self.touch(oid)

    def write(self, oid, worker):
        self.latest[oid] += 1
        self.holders[oid][worker] = self.latest[oid]
        self.touch(oid)

    def copy(self, oid, worker):
        self.holders[oid][worker] = self.latest[oid]
        self.touch(oid)

    def single(self, oid, bumps, final):
        self.latest[oid] += bumps
        self.holders[oid] = {w: self.latest[oid] for w in final}
        self.touch(oid)

    def evict(self, worker):
        for oid, held in self.holders.items():
            if held.pop(worker, None) is not None:
                self.touch(oid)

    def snapshot(self):
        return (dict(self.latest),
                {oid: dict(held) for oid, held in self.holders.items()})

    def restore(self, snap):
        latest, holders = snap
        for oid in sorted(set(self.holders) | set(holders)):
            if oid in holders:  # registered again if it was unregistered
                self.latest[oid] = latest[oid]
                self.holders[oid] = dict(holders[oid])
            self.touch(oid)

    # queries, with the directory's KeyError for an unregistered oid
    def answers(self, oid):
        fresh = {}
        if oid in self.holders:
            latest, held = self.latest[oid], self.holders[oid]
            fresh = {w: (held.get(w, -1) == latest, w in held)
                     for w in DIR_WORKERS}
            at_latest = [w for w, v in held.items() if v == latest]
            home = self.homes[oid]
        else:
            latest = at_latest = home = KeyError
        return (latest, list(self.holders.get(oid, ())), at_latest, fresh,
                self.stamps.get(oid, 0), home)


def _directory_answers(directory, oid):
    def answer(query, *args):
        try:
            return query(oid, *args)
        except KeyError:
            return KeyError

    fresh = {}
    if oid in directory:
        fresh = {w: (directory.is_fresh(oid, w), w in directory.holders(oid))
                 for w in DIR_WORKERS}
    else:
        assert answer(directory.is_fresh, 0) is KeyError
    return (answer(directory.latest_version), directory.holders(oid),
            answer(directory.holders_of_latest), fresh,
            directory.stamp_of(oid), answer(directory.home))


_DELTA = st.dictionaries(
    st.sampled_from(DIR_OIDS),
    st.tuples(st.integers(0, 2),
              st.frozensets(st.sampled_from(DIR_WORKERS), min_size=1)),
    min_size=1, max_size=4)
_DIR_OID = st.sampled_from(DIR_OIDS)
_DIR_WORKER = st.sampled_from(DIR_WORKERS)
_DIRECTORY_STEPS = st.one_of(
    st.tuples(st.just("register"), _DIR_OID, _DIR_WORKER),
    st.tuples(st.just("write"), _DIR_OID, _DIR_WORKER),
    st.tuples(st.just("write"), _DIR_OID, _DIR_WORKER),
    st.tuples(st.just("copy"), _DIR_OID, _DIR_WORKER),
    st.tuples(st.just("copy"), _DIR_OID, _DIR_WORKER),
    # several recorded deltas (from a pool of three), then one fold
    st.tuples(st.just("deltas"),
              st.lists(st.integers(0, 2), min_size=1, max_size=4)),
    st.tuples(st.just("single"), _DIR_OID, st.integers(0, 2),
              st.lists(_DIR_WORKER, max_size=3)),
    st.tuples(st.just("fold")),
    st.tuples(st.just("evict"), _DIR_WORKER),
    st.tuples(st.just("unregister"), _DIR_OID),
    st.tuples(st.just("rehome"), _DIR_OID, _DIR_WORKER),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore"), st.integers(0, 9)),
)


@pytest.mark.guard
@given(homes=st.lists(_DIR_WORKER, min_size=len(DIR_OIDS),
                      max_size=len(DIR_OIDS)),
       pool=st.lists(_DELTA, min_size=3, max_size=3),
       steps=st.lists(_DIRECTORY_STEPS, max_size=50))
@settings(max_examples=300, deadline=None)
def test_directory_matches_reference_model(homes, pool, steps):
    directory, model = ObjectDirectory(), _ModelDirectory()
    for oid, home in zip(DIR_OIDS, homes):
        directory.register(LogicalObject(oid, f"o{oid}", 0, 8), home)
        model.register(oid, home)
    # each pooled delta is one pair of maps, so a repeat is one more count
    deltas = [({oid: b for oid, (b, _h) in delta.items()},
               {oid: h for oid, (_b, h) in delta.items()}) for delta in pool]
    snapshots = []
    for step in steps:
        kind, args = step[0], step[1:]
        if kind in ("write", "copy", "single") and args[0] not in directory:
            continue  # only registered objects are written or copied
        if kind == "register":
            directory.register(LogicalObject(args[0], "o", 0, 8), args[1])
            model.register(*args)
        elif kind == "write":
            assert directory.record_write(*args) == model.latest[args[0]] + 1
            model.write(*args)
        elif kind == "copy":
            directory.record_copy(*args)
            model.copy(*args)
        elif kind == "deltas":
            chosen = [deltas[i] for i in args[0]
                      if all(oid in directory for oid in deltas[i][0])]
            for delta in chosen:
                directory.apply_block_deltas(*delta)
                model.pending.append(delta)
        elif kind == "single":
            directory.apply_block_delta(*args)
            model.single(*args)
        elif kind == "fold":
            directory.fold()
        elif kind == "evict":
            directory.evict_worker(*args)
            model.evict(*args)
        elif kind == "unregister":
            directory.unregister(*args)
            model.unregister(*args)
        elif kind == "rehome":  # registered now or once: both keep a home
            directory.rehome(*args)
            model.rehome(*args)
        elif kind == "snapshot":
            snap = directory.snapshot()
            model.fold()
            assert snap == model.snapshot()
            snapshots.append(snap)
        elif snapshots:
            snap = snapshots[args[0] % len(snapshots)]
            directory.restore(snap)
            model.fold()
            model.restore(snap)
        model.fold()  # the directory folds on its first read below
        for oid in DIR_OIDS:
            assert _directory_answers(directory, oid) == model.answers(oid), (
                step, oid)
        assert directory.stamp == model.stamp
        # the encoding: a sole holder of the latest version is its id
        for rec in directory.records().values():
            if type(rec.holders) is not int:
                assert not (len(rec.holders) == 1
                            and rec.latest in rec.holders.values())


# ---------------------------------------------------------------------------
# 6. Migration equivalence: edits never change results
# ---------------------------------------------------------------------------
@given(
    block_assignment=block_and_assignment(num_workers=3),
    move_task=st.integers(0, 9),
    dst=st.integers(0, 2),
    seeds=st.lists(st.integers(1, 100), min_size=NUM_OBJECTS,
                   max_size=NUM_OBJECTS),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_migration_preserves_results(block_assignment, move_task, dst, seeds):
    from repro.core.edits import MigrationError
    from repro.nimbus import protocol as P

    block, assignment = block_assignment
    block.block_id = "mig"
    move_task = move_task % block.num_tasks
    seed_block = BlockSpec("seedblk", [StageSpec("seed", [
        LogicalTask("seed", read=(), write=(oid,), param_slot=f"v{oid}")
        for oid in OIDS
    ])])
    params = {f"v{oid}": seeds[i] for i, oid in enumerate(OIDS)}
    iterations = 6
    expected = reference_execute(
        [(seed_block, params)] + [(block, {})] * iterations)

    box = {}

    def migrate(controller):
        controller.edit_threshold = 1.0
        try:
            controller.migrate_tasks("mig", [(move_task, dst)])
        except MigrationError:
            pass  # not migratable (shared objects at destination): fine

    def program(job):
        yield job.define(simple_define(
            {oid: (f"o{oid}", 8) for oid in OIDS}))
        yield job.run(seed_block, params)
        for i in range(iterations):
            if i == 4:
                box["cluster"].controller.deliver(P.ManagerDirective(migrate))
            yield job.run(block)

    cluster = NimbusCluster(3, program, registry=combine_registry(),
                            use_templates=True)
    box["cluster"] = cluster
    cluster.run_until_finished(max_seconds=1e6)
    directory = cluster.controller.jobs[0].directory
    for oid in OIDS:
        holders = directory.holders_of_latest(oid)
        value = cluster.workers[min(holders)].store.get(oid)
        assert value == expected.get(oid)
