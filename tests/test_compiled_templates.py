"""Compiled-plan equivalence: frames and seams are only a cache.

Workers run every template and patch instance on a pooled, compiled
frame (``repro.core.compiled``). The reference semantics — one fresh
command per entry, filled field by field and enqueued in two passes —
live in ``repro.nimbus.crosscheck``, and this whole module runs with
``REPRO_CROSS_CHECK=1``: every instantiation of every run below is
re-derived through the reference (command fields, cross-instance edges,
ready order, a fresh compilation of the entry array) and any difference
raises. The sweeps cover 20 seeds of randomized programs, chaos
profiles, mid-run edits/migration (plans derived across edits, with and
without frames in flight), pipelined seam replay on four apps in three
scheduling modes, and checkpoint recovery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    KMeansApp,
    KMeansSpec,
    LRApp,
    LRSpec,
    RotationApp,
    RotationSpec,
    WaterApp,
    WaterSpec,
)
from repro.chaos import PROFILES, FaultPlan
from repro.core.compiled import compile_plan
from repro.core.edits import EditOp
from repro.core.worker_template import (RecvEntry, SendEntry, TaskEntry,
                                        WorkerHalf)
from repro.nimbus import NimbusCluster
from repro.nimbus import protocol as P
from repro.nimbus.commands import Command, CommandKind
from repro.nimbus.worker import Worker

from .helpers import (
    WorkerDriver,
    assert_identical as _assert_identical,
    cluster_observables,
    combine_registry,
    computed_values,
    random_combine_schedule,
    reference_execute,
    simple_define,
)

NUM_OBJECTS = 8
OIDS = list(range(1, NUM_OBJECTS + 1))
SEEDS = range(20)


@pytest.fixture(autouse=True)
def cross_check(monkeypatch):
    """Every actor this module builds re-derives what it caches."""
    monkeypatch.setenv("REPRO_CROSS_CHECK", "1")


def _run(seed, chaos_profile=None, num_workers=3):
    """One random combine program under the oracle; its observables and
    what a sequential interpreter computes for the same program."""
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
                            registry=combine_registry(), **kwargs)
    cluster.run_until_finished(max_seconds=1e6)
    expected = reference_execute(
        [(seed_block, params)] + [(block, {}) for block in blocks] * iterations)
    return cluster, cluster_observables(cluster, OIDS), expected


def _assert_checked(cluster, templated=True):
    """The oracle was on, and there was something for it to check (the
    shortest random programs finish before a template is installed)."""
    workers = cluster.workers.values()
    assert all(w._cross_check for w in workers)
    assert cluster.controller._cross_check
    assert not templated or sum(w.plans_compiled for w in workers) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_match_the_reference(seed):
    cluster, (_counters, _now, _events, values), expected = _run(seed)
    _assert_checked(cluster, templated=False)
    assert values == {oid: expected[oid] for oid in OIDS}, f"seed {seed}"


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("seed", [3, 11])
def test_random_programs_match_the_reference_under_chaos(profile, seed):
    cluster, observed, expected = _run(seed, chaos_profile=profile)
    _assert_checked(cluster)  # seeds 3 and 11 do reach their templates
    assert observed[3] == {oid: expected[oid] for oid in OIDS}, \
        f"seed {seed} profile {profile}"


def test_cross_check_is_pure_observation(monkeypatch):
    """The oracle re-derives each instantiation and compares; turning it
    on moves no counter, clock, event count or value."""
    _cluster, checked, _expected = _run(7)
    monkeypatch.delenv("REPRO_CROSS_CHECK")
    cluster, plain, _expected = _run(7)
    assert not any(w._cross_check for w in cluster.workers.values())
    _assert_identical(checked, plain, "cross-check seed 7")


# ---------------------------------------------------------------------------
# Derived plans: an edit batch carries the half's compiled plan along
# instead of recompiling it. Whatever the entries and the ops, the derived
# plan is the one a fresh compilation gives, the idle frames it adopts are
# the ones a fresh build gives, and the plan it came from is untouched.
# ---------------------------------------------------------------------------
_KINDS = st.sampled_from(
    [CommandKind.TASK, CommandKind.SEND, CommandKind.RECV])
_OID_LISTS = st.lists(st.integers(1, 6), max_size=3)


@st.composite
def _entry(draw, index, limit):
    """A random entry at ``index`` whose before set may name any index
    below ``limit`` — itself, twice, or one a later op appends."""
    kind = draw(_KINDS)
    before = tuple(draw(st.lists(st.integers(0, limit - 1), max_size=4)))
    if kind == CommandKind.SEND:
        return SendEntry(index, tuple(draw(_OID_LISTS)), before, 1,
                         draw(st.integers(0, 9)), 8)
    if kind == CommandKind.RECV:
        return RecvEntry(index, tuple(draw(_OID_LISTS)), before, 2, 8,
                         draw(st.booleans()))
    return TaskEntry(
        index, tuple(draw(_OID_LISTS)), tuple(draw(_OID_LISTS)), before,
        draw(st.sampled_from(["combine", "nope"])),
        draw(st.sampled_from([None, "p"])), draw(st.booleans()))


@st.composite
def _half_and_batches(draw):
    size = draw(st.integers(0, 7))
    entries = [draw(_entry(i, size)) for i in range(size)]
    current = list(entries)  # the array as the ops drawn so far leave it
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        appends = draw(st.integers(0 if current else 1, 3))
        kinds = [EditOp.APPEND] * appends + [EditOp.REPLACE] * (
            draw(st.integers(0, 3)) if current else 0)
        limit = len(current) + appends  # forward references (Fig. 6)
        batch = []
        for kind in draw(st.permutations(kinds)):
            if kind == EditOp.APPEND:
                index = len(current)
                current.append(draw(_entry(index, limit)))
            else:  # any entry, one appended by this batch included
                index = draw(st.integers(0, len(current) - 1))
                shape = draw(st.sampled_from(["new", "guard", "rewire"]))
                if shape == "new":
                    entry = draw(_entry(index, limit))
                else:  # the same accesses behind other dependencies
                    entry = current[index].clone()
                    more = tuple(draw(st.lists(
                        st.integers(0, limit - 1), min_size=1, max_size=3)))
                    # the migration guard only adds to what it waits for
                    entry.before = (entry.before if shape == "guard"
                                    else ()) + more
                current[index] = entry
            batch.append(EditOp(kind, index, current[index]))
        batches.append(batch)
    return entries, batches


_COMMAND_FIELDS = ("kind", "read", "write", "_cpos", "_cfn")


@settings(max_examples=300, deadline=None)
@given(_half_and_batches())
def test_derived_plan_equals_a_fresh_compilation(case):
    entries, batches = case
    registry = combine_registry()
    half = WorkerHalf("b", 0, entries,
                      [e.index for e in entries if e.report])
    plan = half.compiled_plan()
    idle = [plan.acquire(registry) for _ in range(2)]
    busy = plan.acquire(registry)  # in flight across the first batch
    for frame in idle:
        frame.release()
    for batch in batches:
        before = plan.signature()
        stale = half.apply_edit_ops(batch, registry)
        assert stale is plan and stale.signature() == before
        plan = half._plan
        fresh = compile_plan(half.entries, half.reports)
        assert plan is not stale and plan.signature() == fresh.signature()
        assert plan.miss.fallback == fresh.miss.fallback
        assert half.reports == {e.index for e in half.entries if e.report}
        assert stale.pool == [] and plan.pool == idle
        want = fresh.acquire(registry)
        for frame in idle:
            assert len(frame.cmds) == plan.m and frame.xsucc is None
            for got, ref in zip(frame.cmds, want.cmds):
                assert got._carena is frame
                for field in _COMMAND_FIELDS:
                    assert getattr(got, field) == getattr(ref, field), field
        assert busy.plan is not plan and len(busy.cmds) == busy.plan.m
        stale.retire()


# ---------------------------------------------------------------------------
# The fig10 path: mid-run migration edits the installed templates; the
# compiled plans are derived across every edit, the pre-edit ones retired,
# and the run stays bit-identical.
# ---------------------------------------------------------------------------
def _run_lr_with_migrations(num_workers=4, iterations=12):
    spec = LRSpec(num_workers=num_workers, iterations=iterations)
    app = LRApp(spec)
    box = {}
    state = {"round": 0}

    def migrate(controller):
        offset = state["round"]
        state["round"] += 1
        moves = [(offset % spec.num_partitions,
                  (offset + num_workers // 2) % num_workers)]
        controller.migrate_tasks("lr.iteration", moves)

    def program(job):
        yield job.define(app.variables.definitions)
        yield job.run(app.init_block)
        for i in range(iterations):
            if i in (6, 9):  # after templates are installed (warm-up is 3)
                box["cluster"].controller.deliver(P.ManagerDirective(migrate))
            yield job.run(app.iteration_block, {"step": spec.step_size})

    cluster = NimbusCluster(num_workers, program, registry=app.registry)
    box["cluster"] = cluster
    cluster.run_until_finished(max_seconds=1e6)
    return cluster


@pytest.mark.parametrize("num_workers", [4, 5, 6])
def test_edited_plans_pass_the_oracle_across_migration(num_workers):
    # a plan that survived an edit of its half fails the oracle's
    # fresh-compile comparison; so does pooling state carried across one
    cluster = _run_lr_with_migrations(num_workers=num_workers)
    _assert_checked(cluster)
    assert cluster.metrics.count("edits_applied") > 0


def _count_patch_installs(monkeypatch):
    """Per worker, the patches it installed (each compiles once)."""
    installs = {}
    install = Worker._on_install_patch

    def counting(self, msg):
        installs[self.worker_id] = installs.get(self.worker_id, 0) + 1
        install(self, msg)
    monkeypatch.setattr(Worker, "_on_install_patch", counting)
    return installs


def test_migration_derives_plans_without_recompiling(monkeypatch):
    installs = _count_patch_installs(monkeypatch)
    cluster = _run_lr_with_migrations()
    assert cluster.metrics.count("edits_applied") > 0
    for wid, worker in cluster.workers.items():
        # its half once, and each relocation patch once (patches are not
        # edited): the two edit rounds compiled nothing
        assert worker.plans_compiled == 1 + installs.get(wid, 0)
        for half in worker._templates.values():
            assert half._plan.signature() == compile_plan(
                half.entries, half.reports).signature()


def test_edits_land_while_the_old_plan_has_frames_in_flight(monkeypatch):
    """Pipelined centralized LR, a migration posted mid-pipeline: edit
    batches reach workers whose earlier instances are still running on
    the pre-edit plan. That plan is retired, not mutated — its frames
    drain against it — and the results are the unmigrated run's."""
    spec = LRSpec(num_workers=4, iterations=16, partitions_per_worker=4,
                  real_compute=True, rows_per_partition=8, dim=16)
    landed = []  # per edit batch: frames of the pre-edit plan pending
    apply_edits = Worker._apply_edits

    def probe(worker, half, edits):
        stale = half._plan
        running = {id(cmd._carena): cmd._carena
                   for _cid, cmd in worker._pending.items()
                   if cmd._carena is not None and cmd._carena.plan is stale}
        before = stale.signature()
        apply_edits(worker, half, edits)
        landed.append(len(running))
        assert half._plan is not stale and stale.pool is None
        assert stale.signature() == before
        assert all(frame.plan is stale for frame in running.values())

    monkeypatch.setattr(Worker, "_apply_edits", probe)

    def run(migrate_at=None):
        app = LRApp(spec)
        cluster = NimbusCluster(4, app.program(blocking=False),
                                registry=app.registry)

        def migrate(controller):
            controller.edit_threshold = 0.5
            assert controller.migrate_tasks(
                "lr.iteration", [(0, 2), (5, 3)]) == "edits"

        if migrate_at is not None:
            cluster.sim.schedule_at(
                migrate_at, cluster.controller.deliver,
                P.ManagerDirective(migrate))
        cluster.run_until_finished(max_seconds=1e6)
        return cluster

    plain = run()
    edited = run(migrate_at=0.6 * plain.sim.now)
    _assert_checked(edited)
    assert landed and max(landed) > 0, landed
    assert computed_values(edited) == computed_values(plain)


# ---------------------------------------------------------------------------
# Frames and seams (DESIGN.md §9): the cached cross-instance edges are only
# a cache. Pipelined programs (driver max_inflight 4; self-schedule depth 3)
# on all four apps, in all three scheduling modes, with and without chaos,
# must match the tracker walk edge for edge — and actually replay seams.
# ---------------------------------------------------------------------------
def _seam_app(name):
    if name == "fig07":
        app = LRApp(LRSpec(num_workers=4, iterations=8,
                           partitions_per_worker=4))
        return app, app.program(blocking=False)
    if name == "fig08":
        app = KMeansApp(KMeansSpec(num_workers=4, iterations=8,
                                   partitions_per_worker=4))
        return app, app.program(blocking=False)
    if name == "rotation":
        app = RotationApp(RotationSpec(num_workers=4, iterations=10))
        return app, app.program()
    app = WaterApp(WaterSpec(num_workers=4, partitions_per_worker=2,
                             scale=0.002, frame_duration=0.006,
                             reseed_every=3))
    return app, app.program()


def _run_seam_app(name, mode, profile, seed):
    app, program = _seam_app(name)
    plan = (None if profile is None
            else FaultPlan.from_profile(profile, seed=seed))
    cluster = NimbusCluster(4, program, registry=app.registry, seed=seed,
                            mode=mode, chaos_plan=plan)
    for worker in cluster.workers.values():
        worker.self_schedule_depth = 3
    cluster.run_until_finished(max_seconds=1e6)
    return cluster


@pytest.mark.parametrize("profile", [None, "light", "hostile"])
@pytest.mark.parametrize("mode", ["centralized", "decentralized", "sharded"])
@pytest.mark.parametrize("name", ["fig07", "fig08", "rotation", "water"])
def test_seam_replay_matches_the_tracker_walk(name, mode, profile):
    seed = len(name) + 7 * len(mode) + (0 if profile is None else 13)
    cluster = _run_seam_app(name, mode, profile, seed)
    label = f"{name}/{mode}/{profile}/seed {seed}"
    _assert_checked(cluster)
    assert cluster.metrics.count("worker.seam_hits") > 0, label
    assert set(cluster.metrics.counters_snapshot("worker.seam_")) <= {
        "worker.seam_builds", "worker.seam_hits", "worker.seam_fallback_oids"}


class _SeamProbe:
    """A real worker on the busiest fig07 half with every instantiation
    re-derived by the tracker walk (cross-check on), ``depth`` instances
    in flight, and the seam counters read after each step."""

    def __init__(self, depth=3):
        self.driver = WorkerDriver(8, depth)
        self.worker = self.driver.worker
        assert self.worker._cross_check

    def count(self, name):
        return self.worker.metrics.count(f"worker.seam_{name}")

    def step(self):
        """One more instantiation; (seam hit?, seams built) for it."""
        hits, builds = self.count("hits"), self.count("builds")
        self.driver.step()
        return self.count("hits") - hits == 1, self.count("builds") - builds

    def assert_steady(self, steps=4):
        for _ in range(steps):
            assert self.step() == (True, 0)

    def assert_dropped_then_rebuilt(self, builds_expected):
        """The instantiation right after a chain break takes the tracker
        walk; the seam then comes back (rebuilt iff a plan changed)."""
        walked = self.count("fallback_oids")
        hit, builds = self.step()
        assert not hit
        assert self.count("fallback_oids") > walked
        rebuilt = builds
        for _ in range(3):
            hit, builds = self.step()
            rebuilt += builds
        assert hit and rebuilt == builds_expected
        self.assert_steady()


def test_seam_hits_in_steady_replay_and_survives_pool_reuse():
    probe = _SeamProbe(depth=5)
    plan = next(iter(probe.worker._templates.values())).compiled_plan()
    probe.assert_steady(steps=12)
    arenas = {id(a) for a in plan.pool}
    for _cid, cmd in probe.worker._pending.items():
        arenas.add(id(cmd._carena))
    assert len(arenas) >= 4  # that many instances were in flight at once
    probe.assert_steady(steps=12)  # ...and every later one reused them
    again = {id(a) for a in plan.pool}
    for _cid, cmd in probe.worker._pending.items():
        again.add(id(cmd._carena))
    assert again == arenas


def test_seam_dropped_by_interleaved_central_command():
    probe = _SeamProbe()
    probe.assert_steady()
    probe.worker.handle(P.DispatchCommandBatch(
        [Command(-5, CommandKind.CREATE, probe.worker.worker_id,
                 write=(-5,))], 0))
    probe.assert_dropped_then_rebuilt(builds_expected=0)


def test_seam_dropped_by_interleaved_patch():
    probe = _SeamProbe()
    probe.assert_steady()
    recv = probe.driver.recvs[0]
    # a patch that rewrites the object the next instance reads: the patch
    # frame becomes the predecessor, and its seam is a different one
    entry = RecvEntry(0, recv.write, src_worker=0)
    probe.worker.handle(P.InstallPatch(1, [entry], 10 ** 8, "patch-a"))
    probe.worker.handle(P.DataMessage(
        ("patch-a", probe.worker.worker_id, 0), recv.write[0], None, 8))
    probe.assert_dropped_then_rebuilt(builds_expected=0)


def test_seam_dropped_by_cotenant_release():
    probe = _SeamProbe()
    probe.assert_steady()
    probe.worker.handle(P.ReleaseJob(7, []))
    probe.assert_dropped_then_rebuilt(builds_expected=0)


def test_seam_dropped_by_halt_and_recovery():
    probe = _SeamProbe()
    probe.assert_steady()
    probe.worker.handle(P.Halt())
    tracker = probe.worker.tracker
    assert not probe.worker._pending and tracker.tail is None
    assert tracker.stats()["chain"] == 0
    probe.assert_dropped_then_rebuilt(builds_expected=0)


def test_seam_rebuilt_after_version_bump():
    probe = _SeamProbe()
    probe.assert_steady()
    half = next(iter(probe.worker._templates.values()))
    probe.worker.handle(P.InstallWorkerTemplate(
        probe.driver.BLOCK, 1, half.entries, sorted(half.reports)))
    probe.driver.version = 1
    # old-version plan -> new-version plan is a pair seen once: a walk;
    # then the new plan follows itself and its own seam is built
    probe.assert_dropped_then_rebuilt(builds_expected=1)


def test_seam_rebuilt_after_migration_edits(monkeypatch):
    """Cluster level (edit ops come from the controller's planner): every
    edit round retires the edited plans and drops their seams, the derived
    plans get theirs at the second sighting, and replay keeps hitting."""
    installs = _count_patch_installs(monkeypatch)
    cluster = _run_lr_with_migrations(iterations=16)
    workers = len(cluster.workers)
    assert cluster.metrics.count("edits_applied") > 0
    # one self-seam per worker before the first edit round, and again for
    # every plan derived by the two rounds
    assert cluster.metrics.count("worker.seam_builds") > workers
    assert cluster.metrics.count("worker.seam_hits") > 0
    for wid, worker in cluster.workers.items():
        live_plans = {half._plan for half in worker._templates.values()}
        for pair in worker._seams:
            assert set(pair) <= live_plans | {
                live[0] for live in worker._patches.values()}, \
                "seam of a retired plan"
        # ... and none of it recompiled a half
        assert worker.plans_compiled == 1 + installs.get(wid, 0)


def test_recovery_passes_the_oracle_with_seams():
    """Halt + checkpoint recovery mid-run: the instances replayed after
    the halt dropped every tail and frame are re-derived too."""
    app = LRApp(LRSpec(num_workers=4, iterations=14,
                       partitions_per_worker=4))
    box = {}

    def program(job):
        yield job.define(app.variables.definitions)
        yield job.run(app.init_block)
        for i in range(14):
            if i == 9 and not box["cluster"].workers[3]._dead:
                box["cluster"].workers[3].fail()
            yield job.run(app.iteration_block, {"step": 0.1})

    cluster = box["cluster"] = NimbusCluster(
        4, program, registry=app.registry, checkpoint_every=3,
        heartbeat_timeout=0.5)
    cluster.start_fault_tolerance(heartbeat_interval=0.1,
                                  check_interval=0.2)
    cluster.run_until_finished(max_seconds=1e6)
    _assert_checked(cluster)
    assert cluster.metrics.count("recoveries_completed") > 0
    assert cluster.metrics.count("worker.seam_hits") > 0


def test_plan_compile_instant_reports_seam_coverage():
    """Traced runs say how much of a steady replay the seam answers, and
    frames keep every release edge the critical-path walk needs."""
    from repro.analysis import critical_path

    from .helpers import run_lr
    cluster = run_lr(workers=4, iterations=8, trace=True)
    described = [event[6] for event in cluster.tracer.events
                 if event[0] == "inst" and event[3] == "plan-compile"]
    assert described
    for args in described:
        assert args["seam_covered"] > 0 and args["seam_fallback"] >= 0
    assert critical_path(cluster.tracer).coverage == pytest.approx(1.0)
