"""Nimbus worker (§3.2, §3.4).

Workers satisfy the three control-plane requirements of §3.1:

1. they maintain a local queue of commands and determine readiness locally
   (per-object conflict tracking plus explicit before sets), never asking
   the controller whether a command may run;
2. they exchange data directly: SEND commands push payloads to peers as
   soon as their before sets are satisfied, and RECVs match arrivals by
   tag, buffering data that lands before the command is enqueued;
3. they execute fine-grained tasks on a fixed set of execution slots
   (cores), so one worker runs many short tasks concurrently.

Workers also cache installed worker-template halves and patches, apply
edits in place, run checkpoint save/load against durable storage, and emit
heartbeats for failure detection.
"""

from __future__ import annotations

import copy
import heapq
from collections import defaultdict, deque
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..core.compiled import CompiledPlan, Seam, build_seam, compile_plan
from ..core.worker_template import WorkerHalf
from ..sim.actor import Actor, Message, _Callback
from ..sim.engine import Simulator
from ..sim.metrics import Metrics
from .commands import Command, CommandKind
from .costs import CostModel
from .crosscheck import FrameCheck, PendingShadow, TrackerShadow
from .data import ObjectStore
from .multijob import job_of
from .runtime import FunctionRegistry, TaskContext
from .tracker import ConflictTracker, PendingIndex
from . import protocol as P


#: hoisted off the enum class: member lookup is a descriptor call, and the
#: ready/complete cascade tests the kind of every command
_TASK = CommandKind.TASK

#: central-path completions buffer this long and flush as one message.
#: Tasks sharing a worker's slots finish in microsecond-spaced bursts, so a
#: small window collapses a burst into one controller message without
#: perceptibly delaying block completion (window ≪ task duration).
COMPLETION_FLUSH_WINDOW = 1e-3


class DurableStorage:
    """Cluster-wide simulated durable storage for checkpoints: per
    checkpoint id, each saved object's payload."""

    def __init__(self) -> None:
        self._data: Dict[int, Dict[int, Any]] = {}

    def save(self, checkpoint_id: int, oid: int, payload: Any) -> None:
        self._data.setdefault(checkpoint_id, {})[oid] = payload

    def load(self, checkpoint_id: int, oid: int) -> Any:
        return self._data.get(checkpoint_id, {}).get(oid)

    def has(self, checkpoint_id: int, oid: int) -> bool:
        return oid in self._data.get(checkpoint_id, ())

    def drop_before(self, checkpoint_id: int) -> None:
        """``checkpoint_id`` committed: recovery never reads an older one."""
        for old in [k for k in self._data if k < checkpoint_id]:
            del self._data[old]


class _InstanceRecord:
    """Per-block-instance completion bookkeeping.

    ``task_times`` is non-None only when the worker was asked to report
    per-task timings (adaptive rebalancing): {local entry index ->
    duration}.
    """

    __slots__ = ("block_id", "instance_id", "block_seq", "remaining",
                 "compute_time", "values", "version", "task_times", "grant")

    def __init__(self, block_id, instance_id, block_seq, remaining,
                 version=0, task_times=None, grant=None):
        self.block_id = block_id
        self.instance_id = instance_id
        self.block_seq = block_seq
        self.remaining = remaining
        self.compute_time = 0.0
        self.values: Dict[int, Any] = {}
        self.version = version
        self.task_times: Optional[Dict[int, float]] = task_times
        #: owning self-schedule grant (decentralized mode), else None:
        #: completion folds into a WindowSummary row instead of an
        #: InstanceComplete message
        self.grant: Optional[_WorkerGrant] = grant


class _WorkerGrant:
    """Worker-side state of one self-schedule window (DESIGN.md §14).

    The worker consumes ``instances`` front to back, keeping at most
    ``Worker.self_schedule_depth`` in flight; ``rows`` accumulate one
    completion row per finished instance for the final WindowSummary.
    """

    __slots__ = ("key", "block_id", "version", "half", "instances", "next",
                 "active", "rows", "epoch", "stalled", "reply_to")

    def __init__(self, key, block_id, version, half, instances, epoch,
                 reply_to=None):
        self.key = key  # (job_id, window_id)
        self.block_id = block_id
        self.version = version
        self.half = half
        self.instances = instances  # [(instance_id, cid_base, seq, params)]
        self.next = 0  # instances consumed (started or seen-skipped)
        self.active = 0  # instances in flight locally
        self.rows: List[Tuple] = []
        self.epoch = epoch  # partition-map epoch the grant was issued under
        self.stalled = False
        #: actor name the WindowSummary returns to (sharded mode: the
        #: owning shard); None means the controller
        self.reply_to = reply_to


class Worker(P.ReliableEndpoint, Actor):
    """A Nimbus worker node.

    In decentralized mode (DESIGN.md §14) workers additionally
    self-schedule: a :class:`~repro.nimbus.protocol.SelfScheduleWindow`
    grants a window of template instances, and the worker advances from
    instance to instance locally — checking the partition-map epoch at
    every block boundary — reporting one summary when the window drains.

    Workers speak the reliable channel protocol, with idempotent-receive
    guards on top: a redelivered instantiation, patch install or patch
    invocation is discarded (``protocol.stale_discards``), never run again
    under ids already live — which would corrupt the conflict tracker and,
    through bogus completions, the controller's object-version map.
    """

    def __init__(
        self,
        sim: Simulator,
        worker_id: int,
        controller,
        registry: FunctionRegistry,
        costs: CostModel,
        metrics: Metrics,
        storage: DurableStorage,
        slots: int = 8,
        duration_scale: float = 1.0,
    ):
        super().__init__(sim, f"worker-{worker_id}")
        self._init_reliable(metrics)
        self.worker_id = worker_id
        self.controller = controller
        self.registry = registry
        self.costs = costs
        self.metrics = metrics
        self.storage = storage
        self.slots = slots
        self.duration_scale = duration_scale
        #: when True, template instances collect per-task timings and
        #: piggyback them on InstanceComplete (set by the cluster when the
        #: adaptive rebalancer is enabled; off by default so the steady
        #: hot path stays untouched)
        self.report_task_times = False
        self.store = ObjectStore()
        self.peers: Dict[int, "Worker"] = {}  # attached by the cluster

        # command queue state: a central command's dependency count,
        # metadata and successors are on it (``_rem``/``_wmeta``/``_succ``);
        # a compiled instance keeps all three on its frame
        self._pending = (PendingShadow(self) if self._cross_check
                         else PendingIndex())
        self._ready_tasks = deque()
        self._free_slots: int = slots
        self.tracker = ConflictTracker(self._pending)
        if self._cross_check:
            self.tracker.shadow = TrackerShadow(self.tracker)

        # copy matching
        self._data_buffer: Dict[Hashable, Tuple[Any, int]] = {}
        self._expected: Dict[Hashable, Command] = {}  # tag -> waiting RECV

        # template and patch caches; templates are keyed per job —
        # (job_id, block_id, version) — so concurrent jobs reusing a
        # block id can never clobber each other's halves
        self._templates: Dict[Tuple[int, str, int], WorkerHalf] = {}
        #: only what the controller can still invoke (DESIGN.md §12): per
        #: live patch id [plan, last instance id run, that one's frame];
        #: per retired id the last instance sent it (:meth:`retire_patch`)
        self._patches: Dict[int, list] = {}
        self._retire_at: Dict[int, int] = {}
        #: redelivery watermarks, kept across halts (DESIGN.md §7): the
        #: highest patch id installed, and per job and block the highest
        #: instance id started; a finished job's marker answers for it
        self._patch_mark = -1
        self._instance_marks: Dict[int, Dict[str, int]] = defaultdict(dict)
        self._finished_jobs: set = set()

        # compiled execution plans (repro.core.compiled): every template
        # and patch instance replays a pooled command arena
        #: (predecessor plan, plan) -> its seam; None after one sighting
        self._seams: Dict[Tuple[CompiledPlan, CompiledPlan],
                          Optional[Seam]] = {}
        self.plans_compiled = 0  # introspection: plan compilations

        #: self-schedule grants in flight, keyed (job_id, window_id)
        self._grants: Dict[Tuple[int, int], _WorkerGrant] = {}
        #: last partition-map epoch observed (EpochUpdate broadcasts);
        #: distinct from ``_epoch``, the local halt generation below
        self._pm_epoch = 0
        #: traced runs: ("cmd", cid) of the completion whose grant
        #: self-advance instantiates the next instance, else None
        self._advance_release = None

        # central-path completions awaiting the COMPLETION_FLUSH_WINDOW
        # flush, flat: cid, block_seq, duration, value per completion
        self._completion_buffer: List[Any] = []
        self._completion_flush_pending = False

        #: decentralized mode: template instances a self-schedule grant
        #: keeps in flight. Instances of one block RMW the same partitions,
        #: so depths 1/2/4 give one virtual timeline on fig07@400, and
        #: depth 4 ~60% more host wall (blocked instances grow the graph)
        self.self_schedule_depth = 1

        #: job ids the controller has released (cancel/crash); in-flight
        #: commands of these jobs drain without executing their bodies
        self._released_jobs: set = set()
        #: ids of the commands that were still pending when their job was
        #: released; the tracker is scrubbed again once the last is gone
        self._released_cids: set = set()

        self._epoch = 0  # bumped on halt; stale completions are dropped
        self._dead = False
        #: autoscaler lifecycle, observational only (the membership's
        #: evict_workers revokes scheduling): "live" → "draining" →
        #: "drained"; a drained worker stays reachable for late acks.
        self.lifecycle = "live"
        self.tasks_executed = 0
        #: why the next _on_ready fired (traced runs, for the critical
        #: path): None (ready at enqueue), ("cmd", cid) or ("data", tag)
        self._trace_release = None
        #: per-completion control-thread charge, hoisted off the cost table
        self._complete_cost = costs.worker_complete_per_command
        #: extra control-thread cost charged per task completion; used by
        #: the Naiad baseline to model its per-callback overhead (§5.3)
        self.callback_overhead = 0.0

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        if self._dead:
            return
        if isinstance(msg, P.DataMessage):
            self._on_data(msg)
        elif isinstance(msg, P.DispatchCommandBatch):
            self._on_dispatch_batch(msg)
        elif isinstance(msg, P.InstantiateWorkerTemplate):
            self._on_instantiate_template(msg)
        elif isinstance(msg, P.SelfScheduleWindow):
            self._on_self_schedule(msg)
        elif isinstance(msg, P.EpochUpdate):
            # monotone: with sharded relays (and retransmits) an older
            # update can land after a newer one; regressing would stall
            # re-granted windows
            if msg.epoch > self._pm_epoch:
                self._pm_epoch = msg.epoch
        elif isinstance(msg, P.InstallWorkerTemplate):
            self._on_install_template(msg)
        elif isinstance(msg, P.InstallPatch):
            self._on_install_patch(msg)
        elif isinstance(msg, P.InstantiatePatch):
            self._on_instantiate_patch(msg)
        elif isinstance(msg, P.CreateObjects):
            for oid in msg.oids:
                self.store.create(oid)
        elif isinstance(msg, P.DestroyObjects):
            for oid in msg.oids:
                self.store.destroy(oid)
        elif isinstance(msg, P.ReleaseJob):
            self._on_release_job(msg)
        elif isinstance(msg, P.SaveCheckpoint):
            self._on_save_checkpoint(msg)
        elif isinstance(msg, P.LoadCheckpoint):
            self._on_load_checkpoint(msg)
        elif isinstance(msg, P.Halt):
            self._on_halt()
        else:
            raise TypeError(f"worker got unexpected message {msg!r}")

    # ------------------------------------------------------------------
    # Central dispatch path
    # ------------------------------------------------------------------
    def _on_dispatch_batch(self, msg: P.DispatchCommandBatch) -> None:
        """Enqueue cost is per command, not per message, and commands
        resolve one by one, as if each came alone (no cached befores)."""
        self.charge(self.costs.worker_enqueue_per_command * len(msg.commands))
        metas = ((msg.block_seq, False), (msg.block_seq, True))
        for cmd in msg.commands:
            self._enqueue(cmd, metas[cmd.cid in msg.reports])

    # ------------------------------------------------------------------
    # Template install / instantiate
    # ------------------------------------------------------------------
    def _stale(self) -> None:
        self.metrics.incr("protocol.stale_discards")

    def _on_install_template(self, msg: P.InstallWorkerTemplate) -> None:
        key = (msg.job_id, msg.block_id, msg.version)
        if key in self._templates or msg.job_id in self._finished_jobs:
            # redelivered install: reinstalling would wipe edits already
            # applied to the cached half (or revive a finished job's)
            self._stale()
            return
        entries = msg.entries
        self._templates[key] = WorkerHalf(msg.block_id, msg.version, entries,
                                          msg.reports)
        self.charge(
            self.costs.install_worker_template_worker_per_task * len(entries)
        )
        self.metrics.incr("worker_templates_installed")
        if self._trace is not None:
            self._trace.instant(self.name, "template", "template.install",
                                block_id=msg.block_id, version=msg.version,
                                entries=len(entries))

    def _on_instantiate_template(self, msg: P.InstantiateWorkerTemplate) -> None:
        if (msg.job_id in self._finished_jobs
                or self._seen(msg.job_id, msg.block_id, msg.instance_id)):
            # redelivered (or stale pre-halt) instantiation: its command
            # ids were already allocated once; running it again would
            # collide with live commands and double-apply edits
            self._stale()
            return
        half = self._installed_half(msg, "asked to instantiate template")
        self._start_instance(half, msg.block_id, msg.version, msg.instance_id,
                             msg.cid_base, msg.block_seq, msg.params)

    def _seen(self, job_id: int, block_id: str, instance_id: int) -> bool:
        """Has this instance, or a later one of its block, started here?
        Else it is marked started. Exact: per worker the controller sends
        a job's instances in allocation order (DESIGN.md §7)."""
        marks = self._instance_marks[job_id]
        if instance_id <= marks.get(block_id, -1):
            return True
        marks[block_id] = instance_id
        return False

    def _installed_half(self, msg, asked: str) -> WorkerHalf:
        """The half ``msg`` names, with the edits it ships applied."""
        half = self._templates.get((msg.job_id, msg.block_id, msg.version))
        if half is None:
            raise KeyError(
                f"worker {self.worker_id}: job {msg.job_id} {asked} "
                f"({msg.block_id!r}, v{msg.version}) which was never "
                f"installed here (installed: {sorted(self._templates)})")
        if msg.edits:
            self._apply_edits(half, msg.edits)
        return half

    def _start_instance(self, half: WorkerHalf, block_id, version,
                        instance_id, cid_base, block_seq, params,
                        grant: Optional[_WorkerGrant] = None) -> None:
        """Instantiate one template instance from an installed half.

        Shared by the centralized path (one InstantiateWorkerTemplate per
        instance) and the decentralized path (the worker advances through
        a self-schedule window); the command stream is identical either
        way — only ``grant`` routing of the completion differs.
        """
        record = _InstanceRecord(
            block_id, instance_id, block_seq, remaining=0, version=version,
            task_times={} if self.report_task_times else None,
            grant=grant,
        )
        fresh_plan = half._plan is None
        plan = half.compiled_plan()
        if fresh_plan:
            self.plans_compiled += 1
            if self._trace is not None:
                self._trace.instant(self.name, "template", "plan-compile",
                                    block_id=block_id, **plan.describe())
        record.remaining = m = plan.m
        self.charge(self.costs.worker_instantiate_per_command * m)
        if m:
            self._run_compiled_plan(plan, half.entries, cid_base,
                                    instance_id, params, record)
        else:
            self._finish_instance(record)

    def _run_compiled_plan(self, plan: CompiledPlan, entries, cid_base: int,
                           instance_id, params, record) -> None:
        """Register, resolve, and fire one instantiation of ``plan``.

        Equivalent to registering the whole batch and then resolving it
        command by command (the reference ``repro.nimbus.crosscheck``
        holds it to): external dependencies are read from the pre-batch
        conflict tracker (nothing external can complete mid-handler), the
        tracker gets the batch's *net* update — deferred to its chain
        until something reads it — and ready positions fire in entry
        order so zero-dep SEND/RECV/CREATE commands complete
        synchronously at the points a per-command sweep completes them.

        The instance runs on a frame (DESIGN.md §9): dependency counts
        start as one list copy, and when the previous thing enqueued here
        was another compiled instance (the tracker's ``tail``) the cached
        seam between the two plans answers every conflict check its net
        update determines with "is that predecessor position still
        pending".
        """
        tracker = self.tracker
        pred = tracker.tail
        seam, prem, pxs = plan.miss, (), ()
        if pred is not None:
            key = (pred.plan, plan)
            seam = self._seams.get(key)
            if seam is None:
                # built on the second sighting: a pair met once (the
                # instance after an edit or a patch) never pays for it —
                # lr_migrate 23.3 us/task against 25.5 building at once
                if key in self._seams:
                    seam = build_seam(*key)
                    self.metrics.incr("worker.seam_builds")
                self._seams[key] = seam
                seam = seam or plan.miss
            # a drained predecessor is back in its pool and may be the
            # very arena acquired below — which gets a fresh ``rem``, so
            # this one (all -1 by now) stays the predecessor's
            prem, pxs = pred.rem, pred.xsucc
            if pxs is None and seam.covered:  # on first use
                pxs = pred.xsucc = [None] * len(pred.cmds)
        counters = self.metrics.counters
        if seam.covered:
            counters["worker.seam_hits"] += 1.0
        walk = tracker.admit(plan, seam)

        frame = plan.acquire(self.registry)
        cmds = frame.cmds
        for i, slot in plan.param_slots:
            cmds[i].params = params.get(slot)
        for i, dst_worker, dst_index in plan.sends:
            cmds[i].tag = (instance_id, dst_worker, dst_index)
        wid = self.worker_id
        for i, entry_index in plan.recvs:
            cmds[i].tag = (instance_id, wid, entry_index)
        frame.cid_base, frame.record = cid_base, record

        tr = self._trace
        if tr is not None:
            run_seq = record.block_seq if record is not None else None
            for cid, cmd in enumerate(cmds, cid_base):
                tr.cmd_enqueue(cid, cmd.kind, cmd.function, self.name,
                               run_seq)
        if self._cross_check:
            check = FrameCheck(self, frame)
        frame.rem = rem = plan.init_hold.tolist()
        self._pending.add_frame(frame)  # pending until its last completion

        counters["worker.seam_fallback_oids"] += seam.fallback
        ready = []
        data_buffer = self._data_buffer
        for pos, preds, roids, woids, is_recv in zip(
                seam.pos, seam.preds, seam.roids, seam.woids, seam.recv):
            cmd = cmds[pos]
            n = 0
            for q in preds:
                if prem[q] >= 0:
                    if pxs[q] is None:
                        pxs[q] = []
                    pxs[q].append(cmd)
                    n += 1
            if walk is not None and (roids or woids):
                # not covered by the seam: the tracker walk
                deps = walk(roids, woids)
                if deps is not None:
                    n += len(deps)
                    for dep in deps:
                        self._link(dep, cmd)
            if is_recv and cmd.tag not in data_buffer:
                self._expected[cmd.tag] = cmd
                n += 1
            if n:
                rem[pos] += n
            elif not rem[pos]:
                rem[pos] = 1  # a ready root: held until the firing pass
                ready.append(pos)
        # the net tracker update, on the chain (end state identical to
        # per-command updates: intra-batch churn collapses at compile
        # time). It lands before anything fires, so an instance started
        # from inside the firing pass (a grant self-advance) sees it.
        tracker.record(frame, seam)

        # firing pass, in entry order: the ready roots, plus the held
        # positions that synchronous completions have cleared by the time
        # their turn comes
        ready += plan.held
        ready.sort()
        on_ready = self._on_ready
        for pos in ready:
            rem[pos] = n = rem[pos] - 1
            if n == 0:
                if tr is not None:
                    # ready at instantiation; for a grant self-advance the
                    # release is the command whose completion advanced us
                    self._trace_release = self._advance_release
                on_ready(cmds[pos])
        if self._cross_check:
            check.verify(entries, instance_id, cid_base, params)
        return frame

    def _link(self, pred: Command, cmd: Command) -> None:
        """Make ``cmd`` wait for pending ``pred``: successors of a compiled
        command live on its frame, of any other on the command itself (a
        lone one bare, a list from the second on)."""
        frame = pred._carena
        if frame is None:
            lst = pred._succ
            if lst.__class__ is list:
                lst.append(cmd)
            else:
                pred._succ = cmd if lst is None else [lst, cmd]
            return
        succs, at = frame.xsucc, pred._cpos
        if succs is None:  # on first use
            succs = frame.xsucc = [None] * len(frame.cmds)
        lst = succs[at]
        if lst is None:
            lst = succs[at] = []
        lst.append(cmd)

    def _drop_plans(self, plans) -> None:
        """Retire the plans of edited, finished or released halves: their
        seams (one pass over the cache), the tail if it is one of their
        frames, and their pooled frames — none left for a collector."""
        plans = {plan for plan in plans if plan is not None}
        if not plans:
            return
        self._seams = {k: v for k, v in self._seams.items()
                       if k[0] not in plans and k[1] not in plans}
        for plan in plans:
            self.tracker.drop_plan(plan)
            plan.retire()

    def _apply_edits(self, half: WorkerHalf, edits) -> None:
        """Apply shipped template edits to an installed half; the plan of
        the unedited half, which frames in flight still run on, is retired."""
        self._drop_plans(
            (half.apply_edit_ops(edits, self.registry),))
        self.charge(self.costs.worker_edit_per_task * len(edits))

    def job_finished(self, job_id: int) -> None:
        """A tenant finished (DESIGN.md §12): its halves, guards and plans
        go, the finished marker answers for them; its objects stay."""
        self._finished_jobs.add(job_id)
        self._instance_marks.pop(job_id, None)
        self._free_jobs((job_id,))

    def _on_release_job(self, msg: P.ReleaseJob) -> None:
        """A tenant was cancelled or crashed: scrub it from this worker.

        Its objects are destroyed and its halves dropped. Its queued and
        in-flight commands drain through the dependency machinery without
        their task bodies (:meth:`_task_finished`): nothing wedges, and
        no task touches the destroyed data. Windows close *first*, so no
        draining command can self-advance a fresh instance of the dead
        job or emit a WindowSummary for it.
        """
        self._released_jobs.add(msg.job_id)
        for key in [k for k in self._grants if k[0] == msg.job_id]:
            del self._grants[key]  # in-flight instances drain body-less
        for oid in msg.oids:
            self.store.destroy(oid)
        self._released_cids.update(
            cid for cid, cmd in self._pending.items()
            if self._body_released(cmd))
        self._free_jobs(self._released_jobs)
        self.metrics.incr("jobs.worker_releases")

    def _free_jobs(self, jobs) -> None:
        """Free what ``jobs`` left here that no later event reads (a
        service must not grow with every tenant it served; DESIGN.md §12):
        their halves and plans, their patches once drained (nothing sends
        them another instance) and the tracker entries of their completed
        commands — exact, as a completed command is never a dependency.
        Released jobs' commands go again once drained (:meth:`_complete`)."""
        plans = [self._templates.pop(key)._plan
                 for key in [k for k in self._templates if k[0] in jobs]]
        for pid, (plan, ran, _frame) in self._patches.items():
            if job_of(plan.live[0]) in jobs:
                self._retire_at[pid] = ran
        self._drop_plans(plans)
        self.tracker.scrub(jobs)
        self._free_spent()

    def retire_patch(self, patch_id: int, last_instance: int) -> None:
        """No instance of ``patch_id`` follows ``last_instance``: free the
        patch once that one has drained (a host-side call, like
        :meth:`job_finished`; the patch may not have arrived yet)."""
        if patch_id in self._patches or patch_id > self._patch_mark:
            self._retire_at[patch_id] = last_instance
            self._free_spent()

    def _free_spent(self) -> None:
        """The one teardown of a patch: free each retired patch whose last
        instance has drained — plan, pooled frames, seams and the tracker
        entries of its completed copies."""
        plans = []
        for pid, last in list(self._retire_at.items()):
            live = self._patches.get(pid)
            if live and live[1] >= last and not live[2].outstanding:
                plans.append(self._patches.pop(pid)[0])
                del self._retire_at[pid]
        if plans:
            self._drop_plans(plans)
            self.tracker.scrub(oids={oid for plan in plans for e in plan.live
                                     for oid in e.read + e.write})

    def _body_released(self, cmd: Command) -> bool:
        """True when ``cmd`` belongs to a released job (skip its body)."""
        return job_of(cmd) in self._released_jobs

    def _on_install_patch(self, msg: P.InstallPatch) -> None:
        if msg.patch_id <= self._patch_mark:  # exact: DESIGN.md §7
            self._stale()  # redelivered install: the patch already ran
            return
        self._patch_mark = msg.patch_id
        self.plans_compiled += 1
        self._run_patch(msg.patch_id, compile_plan(msg.entries, ()),
                        msg.instance_id, msg.cid_base)

    def _on_instantiate_patch(self, msg: P.InstantiatePatch) -> None:
        pid, iid = msg.patch_id, msg.instance_id
        live = self._patches.get(pid)
        if live is None or not live[1] < iid <= self._retire_at.get(pid, iid):
            self._stale()  # redelivered, or past its last instance
            return
        self._run_patch(pid, live[0], iid, msg.cid_base)

    def _run_patch(self, patch_id: int, plan: CompiledPlan, instance_id,
                   cid_base) -> None:
        self.charge(self.costs.worker_instantiate_per_command * plan.m)
        frame = self._run_compiled_plan(plan, plan.live, cid_base,
                                        instance_id, {}, None)
        # recorded once it ran: a drain inside the run finds it not spent
        self._patches[patch_id] = [plan, instance_id, frame]
        if patch_id in self._retire_at:
            self._free_spent()  # a one-shot patch may drain at once

    # ------------------------------------------------------------------
    # Central command queue: per-command readiness resolution (§3.1
    # requirement 1) for commands that arrive without a template
    # ------------------------------------------------------------------
    def _enqueue(self, cmd: Command, meta: Tuple[int, bool]) -> None:
        self._pending.central[cmd.cid] = cmd
        cmd._wmeta = meta  # (block_seq, report), shared by its batch
        cmd._rem = -1  # not yet resolved
        cmd._succ = None
        if self._trace is not None:
            self._trace.cmd_enqueue(cmd.cid, cmd.kind, cmd.function,
                                    self.name, meta[0])
        deps = self.tracker.resolve(cmd)
        for dep in cmd.before:  # () but in tests: the scheduler sets none
            dep = self._pending.get(dep)
            if dep is not None:
                deps.add(dep)
        deps.discard(cmd)
        remaining = len(deps)
        if cmd.kind == CommandKind.RECV and cmd.tag not in self._data_buffer:
            self._expected[cmd.tag] = cmd  # else the data is already here
            remaining += 1
        cmd._rem = remaining
        for dep in deps:
            self._link(dep, cmd)
        if remaining == 0:
            if self._trace is not None:
                # ready straight from dispatch (grant self-advances thread
                # the completing command through instead)
                self._trace_release = self._advance_release
            self._on_ready(cmd)

    def _on_data(self, msg: P.DataMessage) -> None:
        self._data_buffer[msg.tag] = (msg.payload, msg.size_bytes)
        if self._trace is not None:
            self._trace.copy_arrive(msg.tag, self.name)
            self._trace_release = ("data", msg.tag)
        cmd = self._expected.pop(msg.tag, None)
        if cmd is None:
            return
        frame = cmd._carena  # the payload was one dependency of ``cmd``
        if frame is None:
            cmd._rem = left = cmd._rem - 1
        else:
            rem = frame.rem
            rem[cmd._cpos] = left = rem[cmd._cpos] - 1
        if left == 0:
            self._on_ready(cmd)

    def _on_ready(self, cmd: Command) -> None:
        if self._trace is not None:
            self._trace.cmd_ready(cmd.cid, self._trace_release)
        kind = cmd.kind
        if kind == _TASK:
            self._ready_tasks.append(cmd)
            if self._free_slots > 0:
                self._maybe_start_tasks()
        elif kind == CommandKind.SEND:
            self._execute_send(cmd)
        elif kind == CommandKind.RECV:
            payload, _size = self._data_buffer.pop(cmd.tag)
            # a released job's copies drain without resurrecting the
            # destroyed objects (same rule as task bodies)
            if not (self._released_jobs and self._body_released(cmd)):
                for oid in cmd.write:
                    self.store.put(oid, payload)
            self._complete(cmd, duration=0.0)
        elif kind == CommandKind.CREATE:
            if not (self._released_jobs and self._body_released(cmd)):
                for oid in cmd.write:
                    self.store.create(oid)
            self._complete(cmd, duration=0.0)
        else:
            raise ValueError(f"unhandled ready command kind {kind}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _maybe_start_tasks(self) -> None:
        ready = self._ready_tasks
        if not ready:
            return
        free = self._free_slots
        if free <= 0:
            return
        sim = self.sim
        scale = self.duration_scale
        fire = self._task_fire
        epoch = self._epoch
        # completion timers are pushed straight onto the engine queues
        # (same entry shape schedule_fast builds) — one fewer call per
        # task on the single hottest schedule site in the system
        now = sim._now
        seq = sim._seq
        heap = sim._heap
        zero = sim._zero
        push = heapq.heappush
        tr = self._trace
        cohorts = tr is None  # a traced run sees one event per task
        while free > 0 and ready:
            cmd = ready.popleft()
            free -= 1
            if tr is not None:
                tr.cmd_start(cmd.cid)
            fn = cmd._cfn  # resolved once at arena build for compiled plans
            if fn is None:
                fn = self.registry.get(cmd.function)
            duration = fn._const_dur
            if duration is None:
                duration = fn.duration_of(cmd.params, self.worker_id)
            if scale != 1.0:  # else the function's own float, not a copy
                duration *= scale
            batch = None
            if cohorts and free > 0 and ready:
                # cohort entry: consecutive same-duration starts share one
                # queue entry due at one time. Every member's seq is still
                # allocated (the entry carries the first), so relative
                # order against every other queued event is unchanged; the
                # cohort fire replays each member's own timer semantics.
                while free > 0 and ready:
                    nxt = ready[0]
                    nfn = nxt._cfn
                    if nfn is None:
                        nfn = self.registry.get(nxt.function)
                    ndur = nfn._const_dur
                    if ndur is None:
                        ndur = nfn.duration_of(nxt.params, self.worker_id)
                    if ndur * scale != duration:
                        break
                    ready.popleft()
                    free -= 1
                    if batch is None:
                        batch = [(cmd, fn), (nxt, nfn)]
                    else:
                        batch.append((nxt, nfn))
            if batch is None:
                seq += 1
                entry = (now + duration, seq, fire,
                         (cmd, fn, duration, epoch))
            else:
                entry = (now + duration, seq + 1, self._tasks_fire_cohort,
                         (batch, duration, epoch))
                seq += len(batch)
            if duration > 0.0:
                push(heap, entry)
            elif duration == 0.0:
                zero.append(entry)
            else:
                raise ValueError(f"negative task duration {duration!r}")
        sim._seq = seq
        self._free_slots = free

    def _tasks_fire_cohort(self, items, duration: float, epoch: int) -> None:
        """Fire one cohort entry covering ``len(items)`` task completions:
        each member replays what its own timer event would have done
        (:meth:`_task_fire`), and the skipped per-member events are folded
        into ``events_run`` so cohort and per-task runs count alike."""
        self.sim._events_run += len(items) - 1
        fire = self._task_fire
        for cmd, fn in items:
            fire(cmd, fn, duration, epoch)

    def _task_fire(self, cmd: Command, fn, duration: float,
                   epoch: int) -> None:
        """Specialized :meth:`Actor._timer_fire` for task completions.

        Identical semantics — idle control threads run the completion
        inside the timer event, busy ones fall back to a queued
        _Callback — with the generic fn/args indirection flattened out of
        the hottest timer in the system.
        """
        sim = self.sim
        if self._draining or self._inbox or self._busy_until > sim._now:
            self.deliver(_Callback(self._task_finished,
                                   (cmd, fn, duration, epoch)))
            return
        if self._dead:
            return  # mirrors delivery to a crashed endpoint: dropped
        self._charged = 0.0
        start = self._handler_start = sim._now
        self._task_finished(cmd, fn, duration, epoch)
        cost = self._charged
        self._charged = 0.0
        self.busy_time += cost
        busy_until = self._busy_until = start + cost
        if self._inbox:
            self._draining = True
            now = sim._now
            sim.schedule_fast(busy_until if busy_until > now else now,
                              self._drain, ())

    def _task_finished(self, cmd: Command, fn, duration: float,
                       epoch: int) -> None:
        if epoch != self._epoch:
            return  # halted since this task started
        self._charged += self._complete_cost + self.callback_overhead
        if fn.fn is not None and not (self._released_jobs
                                      and self._body_released(cmd)):
            ctx = TaskContext(self.store, cmd.params, self.worker_id,
                              cmd.read, cmd.write)
            fn.fn(ctx)
        self._free_slots += 1
        self.tasks_executed += 1
        self.metrics.counters["tasks_executed"] += 1.0
        self._complete(cmd, duration)
        if self._ready_tasks:
            self._maybe_start_tasks()

    def _execute_send(self, cmd: Command) -> None:
        # a frame's SEND finds its destination and size on the plan's entry
        frame = cmd._carena
        at = cmd if frame is None else frame.plan.live[cmd._cpos]
        oid, size = cmd.read[0], at.size_bytes
        if self._trace is not None:
            self._trace.copy_send(cmd.tag, cmd.cid, self.name, size)
        self.send_reliable(self.peers[at.dst_worker], P.DataMessage(
            cmd.tag, oid, self.store.get(oid), size))
        self._complete(cmd, duration=0.0)

    # ------------------------------------------------------------------
    # Completion bookkeeping
    # ------------------------------------------------------------------
    def _complete(self, cmd: Command, duration: float) -> None:
        tr = self._trace
        frame = cmd._carena
        if frame is None:
            cid = cmd.cid
            del self._pending.central[cid]
            self.tracker.forget(cmd)
            if tr is not None:
                tr.cmd_complete(cid)
            block_seq, report = cmd._wmeta
            record = None
            succs, cmd._succ = cmd._succ, None
            if succs is not None and succs.__class__ is not list:
                succs = (succs,)  # a lone successor is kept bare
        else:
            # compiled command: id, metadata and dependency counts live on
            # the instance frame; intra-batch successors are positions
            pos = cmd._cpos
            cid = frame.cid_base + pos
            if tr is not None:
                tr.cmd_complete(cid)
            plan = frame.plan
            report, record = plan.report_flags[pos], frame.record
            rem = frame.rem
            rem[pos] = -1  # no longer pending, for later seam replays
            targets = plan.succ[pos]
            if targets:
                cmds = frame.cmds
                for t in targets:
                    rem[t] = left = rem[t] - 1
                    if left == 0:
                        # set per-call: nested completions clobber it
                        if tr is not None:
                            self._trace_release = ("cmd", cid)
                        self._on_ready(cmds[t])
            succs = frame.xsucc and frame.xsucc[pos]
        if self._released_cids:
            self._released_cids.discard(cid)
            if not self._released_cids:
                # the released jobs have drained
                self._free_jobs(self._released_jobs)
        if succs:
            # cross-batch successors, in the order they registered
            for succ in succs:
                sframe = succ._carena
                if sframe is None:
                    succ._rem = left = succ._rem - 1
                else:
                    srem = sframe.rem
                    srem[succ._cpos] = left = srem[succ._cpos] - 1
                if left == 0:
                    if tr is not None:
                        self._trace_release = ("cmd", cid)
                    self._on_ready(succ)
            if frame is not None:
                succs.clear()  # the position keeps its list
        if frame is not None:
            frame.outstanding = left = frame.outstanding - 1
            if left == 0:
                self._pending.drop_frame(frame)
                frame.release()
        if record is not None:
            record.remaining -= 1
            if cmd.kind == _TASK:
                record.compute_time += duration
                if record.task_times is not None:
                    record.task_times[pos] = duration
            if report and cmd.write:
                record.values[cmd.write[0]] = self.store.get(cmd.write[0])
            if record.remaining == 0:
                if tr is not None and record.grant is not None:
                    # the next instance this grant starts is released by
                    # this completion — thread the trace edge through
                    self._advance_release = ("cmd", cid)
                    self._finish_instance(record)
                    self._advance_release = None
                else:
                    self._finish_instance(record)
            return
        if frame is not None:  # patch command: no ack needed
            if not left and self._retire_at:
                self._free_spent()  # a retired patch may have drained
            return
        value = self.store.get(cmd.write[0]) if (report and cmd.write) else None
        self._completion_buffer.extend((cid, block_seq, duration, value))
        if not self._completion_flush_pending:
            self._completion_flush_pending = True
            self.call_later(COMPLETION_FLUSH_WINDOW, self._flush_completions)

    def _flush_completions(self) -> None:
        """Send buffered completions now: from the timer, and before any
        *other* controller-bound message (:meth:`_to_controller`) — a later
        run's InstanceComplete must not overtake an earlier run's final
        command completion on the in-order channel."""
        self._completion_flush_pending = False
        items, self._completion_buffer = self._completion_buffer, []
        if items and not self._dead:
            self.send_reliable(self.controller,
                               P.CommandCompleteBatch(self.worker_id, items))

    def _finish_instance(self, record: _InstanceRecord) -> None:
        if record.grant is not None:
            self._grant_instance_done(record)
            return
        self._to_controller(P.InstanceComplete(
            self.worker_id, record.block_id, record.instance_id,
            record.block_seq, record.compute_time, record.values,
            version=record.version, task_times=record.task_times,
        ))

    def _to_controller(self, msg: Message) -> None:
        """Send ``msg`` behind the buffered completions it must not
        overtake on the in-order channel."""
        if self._completion_buffer:
            self._flush_completions()
        self.send_reliable(self.controller, msg)

    # ------------------------------------------------------------------
    # Decentralized self-scheduling (DESIGN.md §14)
    # ------------------------------------------------------------------
    def _on_self_schedule(self, msg: P.SelfScheduleWindow) -> None:
        key = (msg.job_id, msg.window_id)
        if key in self._grants or msg.job_id in self._finished_jobs:
            self._stale()  # redelivered grant: being consumed, or all run
            return
        if msg.job_id in self._released_jobs:
            # a shard-relayed window crossing a ReleaseJob on the direct
            # controller channel: the job is dead here, so dropping the
            # grant closes the release-mid-window race; the
            # controller-side abort already cleaned up the fan-in
            self.metrics.incr("self_schedule.released_window_drops")
            return
        # the install went out on the direct channel before the window
        # did (and before the stamp a relayed window waits on)
        half = self._installed_half(msg, "granted a self-schedule window for")
        grant = _WorkerGrant(key, msg.block_id, msg.version, half,
                             msg.instances, msg.epoch,
                             reply_to=msg.reply_to)
        self._grants[key] = grant
        self._advance_grant(grant)

    def _advance_grant(self, grant: _WorkerGrant) -> None:
        """Consume the grant's instance list, pipelining up to
        ``self_schedule_depth`` instances locally.

        Before crossing each block boundary the worker checks that the
        partition map has not moved since the grant was issued; a moved
        map stalls the window and the remainder is reported back for the
        controller to re-grant under the new epoch.
        """
        # a grant is only ever issued at the coordinator's current epoch,
        # so it may carry proof of an epoch this worker's own EpochUpdate
        # has not delivered yet (sharded relays re-order the channels):
        # fold forward, and stall only on a genuinely *stale* grant
        if grant.epoch > self._pm_epoch:
            self._pm_epoch = grant.epoch
        instances = grant.instances
        while (grant.active < self.self_schedule_depth
               and grant.next < len(instances)
               and not grant.stalled):
            if self._pm_epoch > grant.epoch:
                grant.stalled = True
                self.metrics.incr("self_schedule.stalls")
                break
            instance_id, cid_base, block_seq, params = instances[grant.next]
            grant.next += 1
            if self._seen(grant.key[0], grant.block_id, instance_id):
                self._stale()  # re-granted instance that already ran here
                continue
            self.charge(self.costs.worker_self_schedule_per_instance)
            grant.active += 1
            self._start_instance(grant.half, grant.block_id, grant.version,
                                 instance_id, cid_base, block_seq, params,
                                 grant=grant)
        # synchronous completions can recurse through _grant_instance_done
        # and finish the window inside _start_instance above — the grant
        # membership check keeps the summary from being sent twice
        if (grant.active == 0
                and (grant.stalled or grant.next >= len(instances))
                and self._grants.get(grant.key) is grant):
            self._send_window_summary(grant)

    def _grant_instance_done(self, record: _InstanceRecord) -> None:
        grant = record.grant
        grant.rows.append((record.instance_id, record.block_seq,
                           record.compute_time, record.values,
                           record.task_times, self.sim.now))
        if self._grants.get(grant.key) is not grant:
            return  # grant torn down (halt/release) while this drained
        grant.active -= 1
        self._advance_grant(grant)

    def _send_window_summary(self, grant: _WorkerGrant) -> None:
        del self._grants[grant.key]
        if self._completion_buffer:
            self._flush_completions()  # keep the in-order channel honest
        job_id, window_id = grant.key
        summary = P.WindowSummary(
            self.worker_id, window_id, grant.rows, job_id=job_id,
            stalled=grant.stalled, next_index=grant.next)
        if grant.reply_to is None:
            self.send_reliable(self.controller, summary)
        else:  # sharded mode: back by way of the owning shard
            self.send_reliable(self.network.actors[grant.reply_to],
                               self.stamp(summary, self.controller))

    # ------------------------------------------------------------------
    # Checkpointing and recovery (§4.4)
    # ------------------------------------------------------------------
    def _on_save_checkpoint(self, msg: P.SaveCheckpoint) -> None:
        total_bytes = 0
        for oid in self.store.live_objects():
            payload = self.store.get(oid)
            self.storage.save(msg.checkpoint_id, oid, copy.deepcopy(payload))
            total_bytes += 1024  # accounting proxy; sizes modeled below
        delay = (self.costs.storage_latency
                 + total_bytes / self.costs.storage_bandwidth)
        self.call_later(delay, self._to_controller,
                        P.CheckpointAck(self.worker_id, msg.checkpoint_id))

    def _on_load_checkpoint(self, msg: P.LoadCheckpoint) -> None:
        for oid in msg.oids:
            self.store.put(oid, self.storage.load(msg.checkpoint_id, oid))
        delay = (self.costs.storage_latency
                 + 1024 * len(msg.oids) / self.costs.storage_bandwidth)
        self.call_later(delay, self._to_controller,
                        P.LoadAck(self.worker_id, msg.checkpoint_id))

    def _on_halt(self) -> None:
        """Terminate ongoing tasks, flush queues, respond (§4.4)."""
        self._epoch += 1
        # frames of abandoned instances never drain: the index takes them
        # apart (the old epoch's task timers return before they look at one)
        self._pending.clear()
        self._ready_tasks.clear()
        self._free_slots = self.slots
        self.tracker.clear()  # and its tail: pools refill on demand
        self._data_buffer.clear()
        self._expected.clear()
        self._grants.clear()  # abandoned: recovery re-grants from scratch
        self.drop_holds()  # and so are relayed windows held behind the halt
        self._completion_buffer.clear()  # stale: their runs were abandoned
        self._released_cids.clear()
        self._free_spent()  # a retired patch's abandoned frame has drained
        self.send_reliable(self.controller, P.HaltAck(self.worker_id))

    # ------------------------------------------------------------------
    # Failure injection and heartbeats
    # ------------------------------------------------------------------
    def start_heartbeats(self, interval: float) -> None:
        self._hb_interval = interval
        self.call_later(interval, self._heartbeat)

    def _heartbeat(self) -> None:
        if self._dead:
            return
        self.send(self.controller, P.Heartbeat(self.worker_id))
        self.call_later(self._hb_interval, self._heartbeat)

    def fail(self) -> None:
        """Kill this worker: it stops processing and drops off the network."""
        self._dead = True
        self._epoch += 1
        if self.network is not None:
            self.network.partition(self.name)

    def _rel_alive(self) -> bool:
        return not self._dead

    # shadows the protocol-layer indirection: one attribute load on the
    # per-task-completion timer path
    _timer_alive = _rel_alive

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------
    @property
    def queued_commands(self) -> int:
        return len(self._pending)
