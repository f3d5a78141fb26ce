"""Scheduling policies: how block instantiations become worker work.

The controller, its central scheduler and its template cache own every
decision — id allocation, run bookkeeping, the directory, validation,
patching, completion folds — each written once (DESIGN.md §14). A per-job
:class:`SchedulingPolicy` owns only *queueing* (when a submission runs)
and *transport* (how a decided instance reaches the workers and how its
completions come back):

* :class:`CentralizedPolicy` — the paper's control plane. Every
  instantiation is a driver→controller round-trip; the controller
  validates, patches, and ships one ``InstantiateWorkerTemplate`` per
  worker per instance (§2.2's n+1 messages).

* :class:`DecentralizedPolicy` — Canary-style self-scheduling
  (DESIGN.md §14). The driver submits *windows* of iterations; once a
  window entry reaches the installed/auto-validating steady state the
  controller validates the window once, allocates every instance's ids
  up front, and grants each worker the full schedule in one
  ``SelfScheduleWindow``. Workers advance instance to instance locally
  and report one ``WindowSummary`` back. The controller retains
  exclusive ownership of partition-map changes: windows are granted one
  at a time per job, so every window boundary is a quiesce point, and a
  partition-map epoch bump stalls any straggling grant at its next
  block boundary (the worker-side barrier).

* :class:`ShardedPolicy` — the sharded control plane (DESIGN.md §16).
  Same decisions as decentralized, but the window fan-out/fan-in is
  relayed through per-worker-range controller shards: the coordinator
  pays O(shards) messages per window instead of O(workers), which is
  what lets partition-map-owning control scale past one node.

Entries that do not auto-validate — the install staircase, blocks
needing full validation or patches — fall back to the centralized
per-entry path inside the window (the staircase dispatches through
``controller.central``), and granted entries are decided by the same
``TemplateCache.decide`` a centralized instantiation uses, so all modes
draw the same id streams and compute bit-identical values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..nimbus import protocol as P


class SchedulingPolicy:
    """How one job's block instantiations turn into worker work."""

    mode = "abstract"

    def __init__(self, controller, ctx):
        self.controller = controller
        self.ctx = ctx

    def accept(self, item: Tuple) -> None:
        """Take one (already de-duplicated, un-gated) driver submission:
        ``("submit", block, params, template_start, request_id)``,
        ``("instantiate", InstantiateBlock)`` or
        ``("window", InstantiateWindow)``. The one entry point; a policy
        overrides it to queue."""
        self._run(item)

    def _run(self, item: Tuple) -> None:
        c = self.controller
        kind = item[0]
        if kind == "submit":
            _kind, block, params, template_start, request_id = item
            c.central.run_block(self.ctx, block, params,
                                capture=template_start,
                                request_id=request_id)
        elif kind == "instantiate":
            c.cache.instantiate(self.ctx, item[1])
        else:
            self._process_window(item[1])

    def _process_window(self, msg: P.InstantiateWindow) -> None:
        raise NotImplementedError

    def on_window_summary(self, msg: P.WindowSummary) -> None:
        raise NotImplementedError

    def outstanding_grants(self) -> int:
        """Self-schedule grants in flight (0 = quiesced, map may change)."""
        return 0

    def drop_worker(self, worker: int) -> None:
        """Reclaim a dead worker's share of any outstanding grant.

        No-op for policies that hold no worker-resident granted state
        (the centralized path tracks completions per command, and a dead
        worker's loss surfaces through recovery, not through grants)."""

    def reset(self) -> None:
        """Drop in-flight policy state (recovery or job release)."""

    def abort_relays(self) -> None:
        """Drop what this job's windows left at relays (a participant
        died, or the job was released)."""


class CentralizedPolicy(SchedulingPolicy):
    """The paper's centralized control plane: one decision per instance."""

    mode = "centralized"

    def _process_window(self, msg: P.InstantiateWindow) -> None:
        raise TypeError(
            f"job {self.ctx.job_id} is centralized but its driver sent an "
            f"InstantiateWindow for block {msg.block_id!r}")

    def on_window_summary(self, msg: P.WindowSummary) -> None:
        raise TypeError(
            f"job {self.ctx.job_id} is centralized but worker "
            f"{msg.worker_id} sent a WindowSummary (window {msg.window_id})")


class _WindowGrant:
    """Controller-side state of one granted self-schedule window."""

    __slots__ = ("window_id", "block_id", "version", "seqs", "per_worker",
                 "expected", "progress", "ends")

    def __init__(self, window_id: int, block_id: str, version: int):
        self.window_id = window_id
        self.block_id = block_id
        self.version = version
        #: run seqs of the window's instances, in grant order
        self.seqs: List[int] = []
        #: worker -> [(instance_id, cid_base, block_seq, params)], the
        #: full per-worker schedule (kept for epoch-stall re-grants)
        self.per_worker: Dict[int, List[Tuple]] = {}
        self.expected: Set[int] = set()
        #: worker -> instances already started there (re-grant offset)
        self.progress: Dict[int, int] = {}
        #: seq -> latest worker-local finish time (the block's honest end)
        self.ends: Dict[int, float] = {}


class DecentralizedPolicy(SchedulingPolicy):
    """Worker self-scheduling: the controller grants, workers advance.

    Windows are granted one at a time per job; later submissions (windows
    *and* any interleaved central/instantiate traffic) queue in FIFO
    order behind the outstanding grant so cross-block submission order is
    preserved exactly as the centralized driver's backlog preserves it.
    """

    mode = "decentralized"

    def __init__(self, controller, ctx):
        super().__init__(controller, ctx)
        self._queue: List[Tuple] = []
        self._grant: Optional[_WindowGrant] = None

    # -- queue management ----------------------------------------------
    def outstanding_grants(self) -> int:
        return 0 if self._grant is None else 1

    def reset(self) -> None:
        self._queue.clear()
        self._grant = None

    def accept(self, item: Tuple) -> None:
        self._queue.append(item)
        self._pump()

    def _pump(self) -> None:
        """Process queued submissions until a grant is outstanding."""
        while self._queue and self._grant is None:
            self._run(self._queue.pop(0))

    # -- the grant path ------------------------------------------------
    def _process_window(self, msg: P.InstantiateWindow) -> None:
        """Fallback-or-grant each entry, in submission order.

        Entries before the steady state (install staircase, migrations
        pending full validation) go through the exact centralized path;
        from the first auto-validating entry on, the rest of the window
        becomes one grant. A same-key entry keeps auto-validating after a
        granted predecessor, so the grant is always a contiguous tail.
        """
        c = self.controller
        ctx = self.ctx
        grant: Optional[_WindowGrant] = None
        wts = None
        n = msg.num_tasks
        for request_id, task_id_base, params in msg.entries:
            if c._duplicate_request(ctx, request_id):
                continue
            if grant is None:
                # only an auto-validating entry is granted; the rest reach
                # the cache's instantiation with pristine state
                wts = c.cache.installed(ctx, msg.block_id)
                if (wts is None
                        or not ctx.validation_state.auto_validates(wts.key)):
                    c.cache.instantiate(ctx, P.InstantiateBlock(
                        msg.block_id, n, task_id_base, params,
                        request_id, job_id=msg.job_id))
                    continue
                # one validation covers the whole window: the grant is
                # the controller's *last* per-instance decision
                c.cache.install_halves(ctx, wts)
                c.charge(
                    c.costs.instantiate_worker_template_auto_per_task * n)
                ctx.metrics.incr("auto_validations")
                grant = _WindowGrant(c._alloc_window_id(), msg.block_id,
                                     wts.version)
            # extend the grant by one instance: the controller decides it
            # exactly as it decides a centralized instantiation (instance-
            # major, worker-minor ids); only the transport differs — a row
            # of each worker's grant instead of a message
            c.charge(c.costs.self_schedule_grant_per_task * n)

            def ship(run, worker, cid_base):
                grant.per_worker.setdefault(worker, []).append(
                    (run.instance_id, cid_base, run.seq, params))

            run = c.cache.decide(ctx, wts, "self", request_id, ship)
            ctx.metrics.incr("self_schedule_instances")
            grant.seqs.append(run.seq)
        if grant is None:
            return
        ctx.metrics.incr("self_schedule_grants")
        edits_by_worker = ctx.pending_edits.pop(wts.key, {})
        windows = []
        for worker in sorted(grant.per_worker):
            windows.append((worker, self._build_window(
                grant, worker, grant.per_worker[worker],
                len(wts.entries[worker]), edits_by_worker.get(worker))))
            grant.expected.add(worker)
            grant.progress[worker] = 0
        self._deliver_windows(grant, windows)
        self._grant = grant

    def _build_window(self, grant: _WindowGrant, worker: int, instances,
                      entries: int, edits=None) -> P.SelfScheduleWindow:
        """One worker's granted schedule, with the honest wire size: the
        sum of the per-instance InstantiateWorkerTemplate messages the
        grant replaces."""
        c = self.controller
        out = P.SelfScheduleWindow(
            grant.window_id, grant.block_id, grant.version,
            c.pm_epoch, instances, job_id=self.ctx.job_id, edits=edits)
        out.size_bytes = ((P.TASK_ID_BYTES * entries + P.PARAM_BLOCK_BYTES)
                          * max(1, len(instances)))
        return out

    def _deliver_windows(self, grant: _WindowGrant, windows) -> None:
        """Ship the granted ``(worker, window)`` pairs — one message
        straight to each worker. The sharded policy overrides this seam
        (and :meth:`abort_relays`) to route via shards."""
        c = self.controller
        for worker, out in windows:
            c.send_reliable(c.workers[worker], out)

    # -- summaries ------------------------------------------------------
    def on_window_summary(self, msg: P.WindowSummary) -> None:
        c = self.controller
        grant = self._grant
        if grant is None or grant.window_id != msg.window_id:
            c.metrics.incr("self_schedule.orphan_summaries")
            return
        if msg.worker_id not in grant.expected:
            # a summary from a worker already folded out of this window
            # (finished, or reclaimed by drop_worker after its death) —
            # refolding its rows would double-decrement run accounting
            c.metrics.incr("self_schedule.orphan_summaries")
            return
        # one coarse completion per summary plus the per-row folds — the
        # same rates the centralized completion path charges
        c.charge(c.costs.controller_block_completion)
        for (instance_id, block_seq, compute_time, values, task_times,
             finished_at) in msg.rows:
            c.charge(c.costs.controller_completion_per_task)
            run = c.runs.get(block_seq)
            if run is None:
                continue
            if finished_at > grant.ends.get(block_seq, 0.0):
                grant.ends[block_seq] = finished_at
            c._fold_instance(run, msg.worker_id, grant.version,
                             compute_time, task_times, values)
        grant.progress[msg.worker_id] = (
            grant.progress.get(msg.worker_id, 0) + msg.next_index)
        if msg.stalled:
            self._regrant(msg.worker_id)
            return
        grant.expected.discard(msg.worker_id)
        if not grant.expected:
            self._finish_window(grant)

    def drop_worker(self, worker: int) -> None:
        """Abort the outstanding grant after a participant died.

        A ``SelfScheduleWindow`` is granted state the dead worker can no
        longer act on — and the *survivors* cannot finish it either:
        their in-flight instances wait on data the dead worker will
        never produce, so the window's natural boundary is unreachable.
        Before this fix, ``grant.expected`` retained the dead worker
        forever: the window never closed, its runs' command ids were
        orphaned, and :meth:`Controller._require_quiesced` wedged every
        future partition-map change (evict, migrate, autoscaler drain)
        behind a quiesce that could not arrive.

        The abort reclaims every granted-but-unreported instance
        participation and drops the window's runs *without* completing
        them to the driver: this restores schedulability — it does not
        fabricate results for work that was lost. With checkpointing on,
        recovery replays the window; without, the driver honestly never
        hears those iterations finish. Late summaries from survivors hit
        the orphan guard in :meth:`on_window_summary`.
        """
        grant = self._grant
        if grant is None or worker not in grant.expected:
            return
        c = self.controller
        reclaimed = 0
        for seq in grant.seqs:
            run = c.runs.pop(seq, None)
            if run is None:
                continue
            reclaimed += len(run.expected_workers)
        self._grant = None
        self.abort_relays()
        c.metrics.incr("self_schedule.reclaimed_instances", reclaimed)
        c.metrics.incr("self_schedule.aborted_windows")
        # do NOT pump the queue: later windows read this one's lost
        # outputs; recovery (or job teardown) decides what runs next

    def _regrant(self, worker: int) -> None:
        """Re-issue a stalled worker's remaining instances under the
        current epoch. Ids are unchanged, so the protocol is idempotent:
        data already exchanged for granted instances still tag-matches."""
        c = self.controller
        grant = self._grant
        remaining = grant.per_worker[worker][grant.progress[worker]:]
        wts = self.ctx.worker_templates.get((grant.block_id, grant.version))
        entries = len(wts.entries[worker]) if wts is not None else 1
        out = self._build_window(grant, worker, remaining, entries)
        self._deliver_windows(grant, [(worker, out)])
        c.metrics.incr("self_schedule.regrants")

    def _finish_window(self, grant: _WindowGrant) -> None:
        """Close every run of the window (in seq order) and notify the
        driver once: ``Controller._close_run`` per run, with the per-run
        driver items batched into one message."""
        c = self.controller
        items = []
        for seq in grant.seqs:
            run = c.runs.get(seq)
            if run is None:
                continue
            # end each block at its last worker's local finish time, not
            # at the fold: iteration-time statistics stay meaningful even
            # when a whole steady-state run fits in one window
            items.append(c._close_run(run, grant.ends.get(seq, c.sim.now)))
            if c.autoscaler is not None:
                c.autoscaler.observe_run()
        self._grant = None
        c.send_reliable(self.ctx.driver, P.BlockCompleteBatch(items))
        # the window boundary is the quiesce point: no grant is
        # outstanding for this job, so the partition map may change now
        if c.rebalancer is not None and not c.membership.stopped():
            c.rebalancer.maybe_rebalance(self.ctx, grant.block_id)
        if c.autoscaler is not None and not c.membership.stopped():
            c.autoscaler.reconcile()
        # ... and the checkpoint boundary, through the same accounting
        # a per-instance completion uses (a hand-written mirror here once
        # skipped it, so decentralized job-0 runs never checkpointed)
        c.membership.count_toward_checkpoint(self.ctx, len(items))
        self._pump()
        c._drain_dispatch_queue()


class ShardedPolicy(DecentralizedPolicy):
    """Sharded control plane (DESIGN.md §16): decentralized decisions,
    relayed dispatch.

    Every *decision* — validation, id allocation, run bookkeeping,
    summary folding — is inherited unchanged from
    :class:`DecentralizedPolicy`, which is what makes computed values
    bit-identical across all three modes by construction. What changes
    is the *fan-out and fan-in path*: instead of one coordinator message
    per worker per window, the per-worker grants pack into one
    :class:`~repro.nimbus.protocol.ShardWindow` per controller shard;
    shards relay to their workers in parallel and return one aggregated
    :class:`~repro.nimbus.protocol.ShardWindowSummary` each. Coordinator
    traffic per window drops from O(workers) to O(shards).

    Workers reply to their owning shard (``SelfScheduleWindow.reply_to``),
    never the coordinator. Stalls are the exception that proves the
    ownership rule: a stalled summary is forwarded by the shard
    immediately, because the re-grant needs the coordinator's
    ``pm_epoch`` — partition-map ownership never shards.
    """

    mode = "sharded"

    def _build_window(self, grant, worker, instances, entries, edits=None):
        out = super()._build_window(grant, worker, instances, entries,
                                    edits=edits)
        c = self.controller
        out.reply_to = c.shards[c.shard_of(worker)].name
        # relayed, the window must still not overtake what the
        # coordinator sent this worker directly (its install included)
        return c.stamp(out, c.workers[worker])

    def _deliver_windows(self, grant, windows) -> None:
        c = self.controller
        per_shard: Dict[int, List] = {}
        for worker, out in windows:
            per_shard.setdefault(c.shard_of(worker), []).append(
                (worker, out))
        for shard_id in sorted(per_shard):
            c.send_reliable(c.shards[shard_id], P.ShardWindow(
                grant.window_id, per_shard[shard_id],
                job_id=self.ctx.job_id))

    def abort_relays(self) -> None:
        # every shard drops the job's fan-in state; the unconditional
        # broadcast is O(shards) and saves tracking which shards the
        # window actually touched
        c = self.controller
        for shard_id in sorted(c.shards):
            c.send_reliable(c.shards[shard_id], P.ShardAbort(self.ctx.job_id))


def make_policy(mode: str, controller, ctx) -> SchedulingPolicy:
    for cls in (CentralizedPolicy, DecentralizedPolicy, ShardedPolicy):
        if cls.mode == mode:
            return cls(controller, ctx)
    raise ValueError(
        f"unknown scheduling mode {mode!r}; "
        f"choose 'centralized', 'decentralized', or 'sharded'")
