"""The Nimbus controller (§3.2, §4).

The controller receives blocks from drivers, admits them and hands each
to its job's scheduling policy. It keeps what every path shares: id
allocation, the run table and run close, the object directory and the
partition-map epoch. Three owners on its actor do the rest: the per-task
central scheduler (``controller.central``,
:class:`~repro.nimbus.central.CentralScheduler`), the execution templates
in front of it (``controller.cache``,
:class:`~repro.nimbus.templates.TemplateCache`) and the worker set
(``controller.membership``, :class:`~repro.nimbus.membership.Membership`).

Multi-tenancy: the controller serves N concurrent jobs, each with its own
:class:`~repro.nimbus.multijob.JobContext` (templates, directory and
version map, placement, patch cache, driver channel, metrics), all made by
:meth:`Controller.register_job`. Job 0 is a tenant like any other: the
cluster registers it with its metrics object and driver (none in serve
mode), and its oid namespace starts at 0. Blocks dispatch behind an
optional concurrency cap (``dispatch_inflight_cap``) in weighted
fair-share order, and the shared
:class:`~repro.sched.rebalance.LoadTracker` seeds new jobs' placements on
the least-loaded worker.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.patching import PatchCache
from ..sched.policy import make_policy
from ..sched.rebalance import LoadTracker
from ..sim.actor import Actor, Message
from ..sim.engine import Simulator
from ..sim.metrics import Metrics
from .central import CentralScheduler
from .costs import SLOTS_PER_WORKER, CostModel
from .data import LogicalObject, PartitionPlacement
from .membership import Membership
from .multijob import FairShareQueue, JobContext
from .templates import TemplateCache
from . import protocol as P

#: the steady-state control-plane message types — the traffic Fig. 7
#: measures once templates are installed. Counted separately from total
#: controller traffic so the centralized-vs-decentralized messages-per-task
#: comparison is not drowned out by the (mode-independent) one-time ramp-up
#: of central dispatch and template installation.
_STEADY_IN = frozenset((
    P.InstantiateBlock, P.InstantiateWindow,
    P.InstanceComplete, P.WindowSummary, P.ShardWindowSummary,
))
_STEADY_OUT = frozenset((
    P.InstantiateWorkerTemplate, P.SelfScheduleWindow,
    P.BlockCompleteBatch, P.EpochUpdate,
    P.ShardWindow,
))


class _BlockRun:
    """Tracks one in-flight block instance until completion."""

    __slots__ = ("seq", "block_id", "num_tasks", "mode", "outstanding",
                 "expected_workers", "results", "return_cids", "start_time",
                 "compute_by_worker", "instance_id", "request_id", "ctx")

    def __init__(self, seq, block_id, num_tasks, mode, start_time,
                 request_id=0, ctx=None):
        self.seq = seq
        self.block_id = block_id
        self.num_tasks = num_tasks
        self.mode = mode  # "central" | "template" | "self" (window grant)
        self.outstanding = 0  # commands (central) or worker acks (otherwise)
        self.expected_workers: Set[int] = set()
        self.results: Dict[str, Any] = {}
        #: result name by the id its value arrives under: the writing
        #: command's cid (central) or the returned oid (template, self)
        self.return_cids: Dict[int, str] = {}
        self.start_time = start_time
        self.compute_by_worker: Dict[int, float] = {}
        self.instance_id: Optional[int] = None
        self.request_id = request_id
        #: owning job context (resolves completions without a job id)
        self.ctx: Optional[JobContext] = ctx


class Controller(P.ReliableEndpoint, Actor):
    """Centralized Nimbus controller with execution-template support.

    All controller↔worker and controller↔driver traffic runs over the
    reliable channels of :class:`~repro.nimbus.protocol.ReliableEndpoint`,
    so the control plane survives dropped, delayed, duplicated, and
    reordered messages (chaos injection). Application-level idempotence
    guards back the transport up: instantiation requests are deduplicated
    by request id so a redelivered :class:`~repro.nimbus.protocol.
    InstantiateBlock` can never apply a template's directory delta twice.
    """

    def __init__(
        self,
        sim: Simulator,
        costs: CostModel,
        metrics: Metrics,
        checkpoint_every: Optional[int] = None,
        heartbeat_timeout: float = 3.0,
        edit_threshold: float = 0.25,
        patch_cache_cap: int = 256,
        dispatch_inflight_cap: Optional[int] = None,
        default_mode: str = "centralized",
    ):
        super().__init__(sim, "controller")
        self.costs = costs
        self.metrics = metrics
        self._init_reliable(metrics)
        #: migrations touching more than this fraction of a template's tasks
        #: trigger a re-install instead of edits (§2.3)
        self.edit_threshold = edit_threshold
        self._patch_cache_cap = patch_cache_cap

        self.workers: Dict[int, Actor] = {}
        #: the worker set and every change to it: eviction, join, restore,
        #: death, checkpoints and recovery
        self.membership = Membership(self, checkpoint_every,
                                     heartbeat_timeout)
        #: the membership's live set itself, so a hot-path membership test
        #: is one attribute load; only the membership changes it
        self.live_workers = self.membership.live_workers
        #: controller shards (sharded mode, DESIGN.md §16): shard id ->
        #: ControllerShard actor. Attached by the cluster; empty is fine
        #: as long as no job runs mode="sharded".
        self.shards: Dict[int, Actor] = {}

        #: per-job state, one context per registered job (register_job)
        self.jobs: Dict[int, JobContext] = {}
        #: scheduling mode for jobs that don't pick their own (DESIGN.md §14)
        self.default_mode = default_mode
        #: partition-map epoch: bumped on every map change; decentralized
        #: workers must observe it before crossing a block boundary
        self.pm_epoch = 0
        self._next_window = 1

        #: optional rebalancer (sched.Rebalancer) and autoscaler (scale.
        #: ResourceController), attached by the cluster; None is inert
        self.rebalancer = self.autoscaler = None
        #: cross-job load signal: every block completion folds its per-
        #: worker compute into this EWMA (pure bookkeeping, no RNG/charge);
        #: new jobs' placements start at the least-loaded worker
        self.load_tracker = LoadTracker(alpha=0.5)

        #: when set, at most this many block runs are in flight at once;
        #: excess submissions queue in fair-share order. None (default)
        #: leaves the legacy immediate-dispatch path byte-identical.
        self.dispatch_inflight_cap = dispatch_inflight_cap
        self._dispatch_queue = FairShareQueue()

        # id allocation (shared across jobs so worker-side command ids,
        # instance ids, block seqs, and patch ids never collide)
        self._next_cid = 1
        self._next_instance = 1
        self._next_seq = 1
        self._next_patch_id = 1

        # per-block-run state
        self.runs: Dict[int, _BlockRun] = {}

        #: per-task scheduling: the path every block takes until its
        #: templates are installed (a baseline may install a variant)
        self.central = CentralScheduler(self)
        #: the templates in front of it (a baseline may install a variant)
        self.cache = TemplateCache(self)

    @property
    def current_version(self) -> Dict[str, int]:
        """Job 0's current template versions. This and
        :attr:`worker_templates` stay for the benchmark's migration
        workload, which reads them; they go once it reads
        ``controller.jobs[0]``."""
        return self.jobs[0].current_version

    @property
    def worker_templates(self) -> Dict[Tuple[str, int], Any]:
        """Job 0's worker template sets (see :attr:`current_version`)."""
        return self.jobs[0].worker_templates

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def attach_workers(self, workers: Dict[int, Actor]) -> None:
        self.workers = dict(workers)
        self.membership.attach(workers)

    def attach_shards(self, shards: Dict[int, Actor]) -> None:
        self.shards = dict(shards)

    def shard_of(self, worker_id: int) -> int:
        """The shard owning a worker: fixed modulo partitioning, so a
        worker's owner never moves as workers join and leave."""
        if not self.shards:
            raise RuntimeError(
                "mode='sharded' needs controller shards; build the "
                "cluster through NimbusCluster (which always attaches "
                "them) or call attach_shards() first")
        return worker_id % len(self.shards)

    def register_job(self, job_id: int, driver, metrics: Metrics,
                     weight: float = 1.0,
                     mode: Optional[str] = None) -> JobContext:
        """Create a job's namespace: directory, templates, patch cache.

        Placement reuses the cross-job :class:`LoadTracker`: the job's
        round-robin starts at the currently least-loaded worker, so
        concurrent jobs spread instead of piling onto worker 0.

        DRAINING workers are excluded: a job admitted from the wait
        queue while the autoscaler drains a worker used to land
        partitions on it — work placed on a node that is on its way out
        of the cluster (serve+autoscale regression).
        """
        if job_id in self.jobs:
            raise ValueError(f"job {job_id} is already registered")
        ctx = JobContext(
            job_id, driver=driver, metrics=metrics, weight=weight,
            patch_cache=PatchCache(capacity=self._patch_cache_cap,
                                   metrics=metrics))
        order = sorted(self.live_workers - self.membership.draining_workers)
        if not order:
            order = sorted(self.live_workers)
        if order:
            start = min(order, key=lambda w: (
                self.load_tracker.load.get(w, 0.0), w))
            i = order.index(start)
            order = order[i:] + order[:i]
        ctx.placement = PartitionPlacement(order)
        ctx.policy = make_policy(mode or self.default_mode, self, ctx)
        self.jobs[job_id] = ctx
        return ctx

    def release_job(self, job_id: int) -> None:
        """Tear down a job's namespace (crash, cancel, or eviction).

        Queued dispatches are dropped, in-flight runs abandoned, and the
        job's objects destroyed on every worker holding them — so a dead
        job can never stall or leak into the jobs still being served.
        """
        ctx = self.jobs.pop(job_id, None)
        if ctx is None:
            return
        self._dispatch_queue.drop_job(job_id)
        for seq in [s for s, run in self.runs.items() if run.ctx is ctx]:
            del self.runs[seq]
        per_worker: Dict[int, List[int]] = {}
        for obj in ctx.directory.objects():
            for worker in ctx.directory.holders(obj.oid):
                per_worker.setdefault(worker, []).append(obj.oid)
        # every live worker learns of the release, holder or not: any of
        # them may hold queued commands (or an in-flight write about to
        # create an object) for the dead job
        for worker in sorted(self.live_workers):
            self.send_reliable(self.workers[worker],
                               P.ReleaseJob(job_id,
                                            per_worker.get(worker, [])))
        # close relay state *before* late summaries can arrive: shards
        # holding fan-in for the dead job's windows would otherwise wait
        # forever on workers that just dropped their grants
        ctx.policy.abort_relays()
        # the context and its policy point at each other: cut the loop so
        # the tenant's templates are freed here, not by a collector pass
        ctx.policy = None
        self.metrics.incr("jobs_released")
        self._drain_dispatch_queue()

    def _ctx_of(self, msg) -> Optional[JobContext]:
        """Resolve a driver message's job context; None drops it quietly
        (in-flight traffic of a job released mid-run)."""
        ctx = self.jobs.get(msg.job_id)
        if ctx is None:
            self.metrics.incr("jobs.orphan_discards")
        return ctx

    def send_reliable(self, dst, msg) -> None:
        # logical outbound control messages: retransmissions and channel
        # acks bypass this chokepoint, so each message counts once
        self.metrics.incr("controller.messages_out")
        if type(msg) in _STEADY_OUT:
            self.metrics.incr("controller.steady_messages_out")
        super().send_reliable(dst, msg)

    def _rel_should_retry(self, dst) -> bool:
        """Stop retransmitting to workers declared failed by recovery.

        Evicted workers stay retryable — eviction revokes scheduling, not
        network reachability — so their channels never develop gaps and
        ``Membership.restore_workers`` can resume them seamlessly.
        """
        wid = getattr(dst, "worker_id", None)
        if wid is not None and wid in self.membership.failed_workers:
            return False
        return super()._rel_should_retry(dst)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        # logical inbound control messages (retransmit duplicates are
        # already consumed by the reliable channel; acks never reach here)
        self.metrics.incr("controller.messages_in")
        if type(msg) in _STEADY_IN:
            self.metrics.incr("controller.steady_messages_in")
        if isinstance(msg, P.CommandCompleteBatch):
            self.central.on_command_complete_batch(msg)
        elif isinstance(msg, P.InstanceComplete):
            self._on_instance_complete(msg)
        elif isinstance(msg, P.SubmitBlock):
            ctx = self._ctx_of(msg)
            if ctx is not None:
                self._on_submit_block(ctx, msg)
        elif isinstance(msg, P.InstantiateBlock):
            ctx = self._ctx_of(msg)
            if ctx is not None:
                self._on_instantiate_block(ctx, msg)
        elif isinstance(msg, P.InstantiateWindow):
            ctx = self._ctx_of(msg)
            if ctx is not None:
                self._on_instantiate_window(ctx, msg)
        elif isinstance(msg, P.WindowSummary):
            ctx = self._ctx_of(msg)
            if ctx is not None:
                ctx.policy.on_window_summary(msg)
        elif isinstance(msg, P.ShardWindowSummary):
            # orphan guard first: a released job's shards may still have
            # aggregates in flight — drop them whole, never fold rows
            # into a namespace that no longer exists
            ctx = self._ctx_of(msg)
            if ctx is not None:
                for summary in msg.summaries:
                    ctx.policy.on_window_summary(summary)
        elif isinstance(msg, P.DefineObjects):
            ctx = self._ctx_of(msg)
            if ctx is not None:
                self._on_define_objects(ctx, msg)
        elif isinstance(msg, P.UndefineObjects):
            ctx = self._ctx_of(msg)
            if ctx is not None:
                self._on_undefine_objects(ctx, msg)
        elif isinstance(msg, P.Heartbeat):
            self.membership.on_heartbeat(msg)
        elif isinstance(msg, P.CheckpointAck):
            self.membership.on_checkpoint_ack(msg)
        elif isinstance(msg, P.HaltAck):
            self.membership.on_halt_ack(msg)
        elif isinstance(msg, P.LoadAck):
            self.membership.on_load_ack(msg)
        elif isinstance(msg, P.ManagerDirective):
            msg.action(self)
        else:
            raise TypeError(f"controller got unexpected message {msg!r}")

    # ------------------------------------------------------------------
    # Object definition
    # ------------------------------------------------------------------
    def _on_define_objects(self, ctx: JobContext,
                           msg: P.DefineObjects) -> None:
        per_worker: Dict[int, List[int]] = {}
        for oid, _variable, _partition, size, home in msg.objects:
            goid = ctx.goid(oid)
            worker = ctx.placement.place(home)
            ctx.directory.register(LogicalObject(goid, size), worker)
            per_worker.setdefault(worker, []).append(goid)
        self.charge(self.costs.message_handling * max(1, len(msg.objects) // 64))
        for worker, oids in per_worker.items():
            self.send_reliable(self.workers[worker], P.CreateObjects(oids))
        self.send_reliable(ctx.driver, P.ObjectsReady())

    def _on_undefine_objects(self, ctx: JobContext,
                             msg: P.UndefineObjects) -> None:
        """Destroy logical objects everywhere (data commands, §3.4).

        Installed templates referencing the objects become invalid; the
        driver is responsible for only undefining objects its remaining
        blocks no longer touch (as in the paper, where the driver owns
        the data lifecycle).
        """
        self.charge(self.costs.message_handling)
        per_worker: Dict[int, List[int]] = {}
        for oid in msg.oids:
            goid = ctx.goid(oid)
            if goid not in ctx.directory:
                continue
            for worker in ctx.directory.holders(goid):
                per_worker.setdefault(worker, []).append(goid)
            ctx.directory.unregister(goid)
        for worker, oids in per_worker.items():
            if worker in self.live_workers:
                self.send_reliable(self.workers[worker], P.DestroyObjects(oids))
        self.send_reliable(ctx.driver, P.ObjectsReady())

    # ------------------------------------------------------------------
    # Id allocation (shared by every scheduling path)
    # ------------------------------------------------------------------
    def _alloc_cids(self, n: int) -> int:
        base = self._next_cid
        self._next_cid += n
        return base

    def _alloc_window_id(self) -> int:
        wid = self._next_window
        self._next_window += 1
        return wid

    def _alloc_instance_id(self) -> int:
        iid = self._next_instance
        self._next_instance += 1
        return iid

    def _alloc_patch_id(self) -> int:
        pid = self._next_patch_id
        self._next_patch_id += 1
        return pid

    # ------------------------------------------------------------------
    # Driver block submission (central / capture path)
    # ------------------------------------------------------------------
    def _duplicate_request(self, ctx: JobContext, request_id: int) -> bool:
        """Idempotent receive: has this driver request already run?

        The reliable channel already deduplicates redeliveries; this guard
        protects the object-version map even if a duplicate slips past the
        transport (e.g. a driver resubmitting after a lost completion).
        Request id 0 marks directly injected traffic (tests, benchmarks)
        and is never deduplicated.
        """
        if not request_id or ctx.take_request(request_id):
            return False
        ctx.metrics.incr("protocol.stale_discards")
        return True

    def _on_submit_block(self, ctx: JobContext, msg: P.SubmitBlock) -> None:
        self.charge(self.costs.message_handling)
        if self._duplicate_request(ctx, msg.request_id):
            return
        block = ctx.translate_block(msg.block)
        self._gate_dispatch(ctx, ("submit", block, msg.params,
                                  msg.template_start, msg.request_id),
                            block.num_tasks)

    # ------------------------------------------------------------------
    # Admission gate: fair-share dispatch behind a concurrency cap
    # ------------------------------------------------------------------
    def _gate_dispatch(self, ctx: JobContext, item: Tuple,
                       num_tasks: int) -> None:
        """Hand ``item`` to the job's policy now — or queue it when the
        in-flight cap is reached (or a queue already exists — FIFO within
        a job is part of the contract). Runs after request deduplication,
        so a queued block is never enqueued twice."""
        cap = self.dispatch_inflight_cap
        if cap is None or (len(self.runs) < cap
                           and not self._dispatch_queue):
            ctx.policy.accept(item)
            return
        self._dispatch_queue.push(ctx.job_id, ctx.weight, item,
                                  cost=max(1, num_tasks))
        self.metrics.incr("dispatch.queued")

    def _drain_dispatch_queue(self) -> None:
        cap = self.dispatch_inflight_cap
        if cap is None:
            return
        while self._dispatch_queue and len(self.runs) < cap:
            job_id, item = self._dispatch_queue.pop()
            ctx = self.jobs.get(job_id)
            if ctx is None:
                continue  # released after queueing
            ctx.policy.accept(item)

    # ------------------------------------------------------------------
    # Template instantiation path
    # ------------------------------------------------------------------
    def _on_instantiate_block(self, ctx: JobContext,
                              msg: P.InstantiateBlock) -> None:
        self.charge(self.costs.message_handling)
        if self._duplicate_request(ctx, msg.request_id):
            return
        self._gate_dispatch(ctx, ("instantiate", msg), msg.num_tasks)

    def _on_instantiate_window(self, ctx: JobContext,
                               msg: P.InstantiateWindow) -> None:
        """A decentralized driver's window of instantiations.

        Windows pass through :meth:`_gate_dispatch` like every other
        submission: FIFO within a job is part of the contract, and a
        window that skipped the queue would overtake the job's own gated
        capture ``SubmitBlock`` and instantiate a template that does not
        exist yet (seen with a wait-queued decentralized job admitted
        into a busy serve cluster). The window's queue cost is its total
        task count, so fair-share weighting sees it exactly as it would
        the per-instance messages it replaces.
        """
        self.charge(self.costs.message_handling)
        self._gate_dispatch(ctx, ("window", msg),
                            msg.num_tasks * max(1, len(msg.entries)))

    # ------------------------------------------------------------------
    # Partition-map epochs (decentralized mode, DESIGN.md §14)
    # ------------------------------------------------------------------
    def _decentralized_active(self) -> bool:
        """Any job scheduling through self-schedule windows — both the
        decentralized and sharded modes need epoch broadcasts."""
        return any(ctx.policy is not None
                   and ctx.policy.mode in ("decentralized", "sharded")
                   for ctx in self.jobs.values())

    def bump_partition_epoch(self) -> None:
        """Advance the partition-map epoch after a map change.

        Broadcast only while a decentralized job is registered: a worker
        holding a self-schedule grant under an older epoch stalls at its
        next block boundary and waits for a re-grant. Centralized-only
        clusters see zero extra traffic (the counter bump is free).
        """
        self.pm_epoch += 1
        if self._decentralized_active():
            for worker in sorted(self.live_workers):
                self.send_reliable(self.workers[worker],
                                   P.EpochUpdate(self.pm_epoch))

    def _require_quiesced(self, ctx: Optional[JobContext] = None) -> None:
        """Partition-map changes need quiesced jobs (no grants in flight).

        Decentralized workers schedule from granted state the controller
        cannot retract mid-window; the window boundary (every
        ``Driver.window_size`` iterations) is the next safe point.
        """
        targets = [ctx] if ctx is not None else list(self.jobs.values())
        for j in targets:
            if j.policy is not None and j.policy.outstanding_grants():
                raise RuntimeError(
                    f"job {j.job_id} has a self-schedule window in "
                    f"flight; partition-map changes require a quiesced "
                    f"job — wait for the window boundary (the rebalancer "
                    f"does this automatically)")

    # ------------------------------------------------------------------
    # Dynamic scheduling: edits (§2.3, Fig. 10)
    # ------------------------------------------------------------------
    def migrate_tasks(self, block_id: str, moves: List[Tuple[int, int]],
                      job_id: int = 0) -> str:
        """Move tasks to new workers (:meth:`TemplateCache.migrate`) and
        advance the partition-map epoch; returns the mechanism used. A
        move that cannot be an edit raises MigrationError once the moves
        before it are applied."""
        ctx = self.jobs.get(job_id)
        if ctx is None or ctx.finished:
            raise KeyError(
                f"cannot migrate tasks of block {block_id!r}: job {job_id} "
                + ("has finished" if ctx is not None else
                   f"is not registered (live jobs: {sorted(self.jobs)})"))
        template = ctx.templates.get(block_id)
        if template is None:
            raise KeyError(
                f"job {job_id}: cannot migrate tasks of block {block_id!r}: "
                f"no controller template captured yet (captured blocks: "
                f"{sorted(ctx.templates)})"
            )
        self._require_quiesced(ctx)
        mechanism, rejected = self.cache.migrate(ctx, template, moves)
        self.bump_partition_epoch()
        if rejected is not None:  # what it left planned has shipped
            raise rejected
        return mechanism

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------
    def _new_run(self, ctx: JobContext, block_id: str, num_tasks: int,
                 mode: str, request_id: int = 0) -> _BlockRun:
        seq = self._next_seq
        self._next_seq += 1
        run = _BlockRun(seq, block_id, num_tasks, mode, self.sim.now,
                        request_id, ctx=ctx)
        self.runs[seq] = run
        ctx.metrics.begin("block", self.sim.now, key=seq,
                          block_id=block_id, seq=seq, mode=mode,
                          num_tasks=num_tasks, request_id=request_id)
        if self._trace is not None:
            self._trace.run_begin(run.seq, block_id, mode, request_id,
                                  num_tasks, self._handler_start,
                                  job_id=ctx.job_id)
        return run

    def _trace_decided(self, run: _BlockRun) -> None:
        """Record the end of this run's scheduling decision (traced only).

        The decision ends when the handler's charged CPU elapses — the
        same instant the dispatch messages depart the controller.
        """
        self._trace.run_decided(run.seq, self._handler_start + self._charged)

    def _on_instance_complete(self, msg: P.InstanceComplete) -> None:
        self.charge(self.costs.controller_block_completion)
        run = self.runs.get(msg.block_seq)
        if run is None:
            return
        self._fold_instance(run, msg.worker_id, msg.version,
                            msg.compute_time, msg.task_times, msg.values)
        if run.outstanding == 0:
            self._finish_block(run)

    def _fold_instance(self, run: _BlockRun, worker_id: int, version: int,
                       compute_time: float, task_times,
                       values: Dict[int, Any]) -> None:
        """Fold one worker's report of one finished instance into its run
        (an ``InstanceComplete``, or one row of a window summary)."""
        run.outstanding -= 1
        run.expected_workers.discard(worker_id)
        cbw = run.compute_by_worker
        cbw[worker_id] = cbw.get(worker_id, 0.0) + compute_time
        if self.rebalancer is not None and worker_id in self.live_workers:
            # pure observation: no charge, no metrics, no RNG — a run with
            # the rebalancer enabled but no skew stays bit-identical.
            # Departed workers are filtered: a straggling completion from
            # an already-evicted worker must not resurrect its EWMA entry
            self.rebalancer.observe_instance(
                run.ctx, run.block_id, version, worker_id, compute_time,
                task_times)
        for oid, value in values.items():
            if oid in run.return_cids:
                run.results[run.return_cids[oid]] = value

    def _close_run(self, run: _BlockRun,
                   finished_at: Optional[float] = None) -> Tuple:
        """Retire a run whose last completion has been folded and return
        its ``BlockCompleteBatch`` item; the block interval, the history and
        the driver share its results dict, read-only. The per-instance and
        the window close differ only in the end timestamp: a window passes
        each run's worker-local ``finished_at``; ``None`` ends the run now
        and has the driver stamp it at message arrival."""
        ctx = run.ctx
        end = self.sim.now if finished_at is None else finished_at
        del self.runs[run.seq]
        if self._trace is not None:
            self._trace.run_finish(run.seq)
        compute = 0.0
        if run.compute_by_worker:
            compute = max(run.compute_by_worker.values()) / SLOTS_PER_WORKER
        ctx.metrics.end("block", end, key=run.seq,
                        compute=compute, results=run.results)
        ctx.results_history.append((run.block_id, run.results))
        # pure bookkeeping for cross-job placement: dict folds only, no
        # charge, no RNG — the virtual timeline is untouched. Departed
        # workers are filtered so a run that straddled an eviction does
        # not resurrect the evicted worker's load signal
        for worker, compute_time in run.compute_by_worker.items():
            if worker in self.live_workers:
                self.load_tracker.observe(worker, compute_time, {})
        return run.block_id, run.seq, run.results, run.request_id, finished_at

    def _finish_block(self, run: _BlockRun) -> None:
        ctx = run.ctx
        self.send_reliable(ctx.driver,
                           P.BlockCompleteBatch([self._close_run(run)]))
        if (self.rebalancer is not None and run.mode == "template"
                and not self.membership.stopped()
                and not (ctx.policy is not None
                         and ctx.policy.outstanding_grants())):
            # a mixed window's fallback runs must not move the partition
            # map while the same job's grant is in flight; the policy
            # rebalances at the window boundary instead
            self.rebalancer.maybe_rebalance(ctx, run.block_id)
        self.membership.count_toward_checkpoint(1)
        self._drain_dispatch_queue()
