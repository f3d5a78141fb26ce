"""The worker set and every change to it (Fig. 9, §4.4).

Eviction, a join, a restore, a death and checkpoint recovery all change
the live set, re-home what departed workers held onto the survivors, and
have the template cache (``controller.cache``) re-home and regenerate the
templates that moved. :class:`Membership` does that for the controller,
on the controller's actor, and owns the state involved: the live,
draining and failed sets, the eviction floor, heartbeats and checkpoints
(DESIGN.md §6). ``Controller.live_workers`` is this module's live set,
the same object; only this module changes it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from . import protocol as P


class Membership:
    """Owner of the controller's worker set, failure detector, checkpoints
    and recovery."""

    def __init__(self, controller, checkpoint_every: Optional[int],
                 heartbeat_timeout: float):
        self.controller = controller
        self.live_workers: Set[int] = set()
        #: workers the autoscaler is draining (DRAINING lifecycle): still
        #: live — in-flight work finishes, channels stay open — but no
        #: *new* placement may target them (new-job registration, spread
        #: planning)
        self.draining_workers: Set[int] = set()
        #: workers declared dead: the controller stops retransmitting to
        #: them (evicted workers stay reachable)
        self.failed_workers: Set[int] = set()
        #: evictions may never shrink the live set below this floor (the
        #: autoscaler raises it to its policy's min_workers)
        self.min_live_workers = 1
        self.checkpoint_every = checkpoint_every
        self.heartbeat_timeout = heartbeat_timeout
        self._last_heartbeat: Dict[int, float] = {}
        self._hb_check_interval = 1.0
        self.checkpointing = False
        self.recovering = False
        self._blocks_since_checkpoint = 0
        self._next_checkpoint = 1
        self._pending_checkpoint_id: Optional[int] = None
        self.last_committed_checkpoint: Optional[int] = None
        #: checkpoint id -> job id -> (directory, homes, results history):
        #: the last committed one and the one in progress
        self._checkpoint_snapshots: Dict[int, Dict[int, Tuple]] = {}
        self.storage = None  # the cluster's DurableStorage, pruned alike
        #: ack barrier per stop-the-world step: (acked, expected), where
        #: expected None means the live set at the moment of each ack
        self._barriers: Dict[str, Tuple[Set[int], Optional[Set[int]]]] = {
            "checkpoint": (set(), None),
            "halt": (set(), None),
            "load": (set(), set()),
        }

    def attach(self, workers: Iterable[int]) -> None:
        """The cluster's initial workers: all live."""
        self.live_workers.update(workers)

    # ------------------------------------------------------------------
    # The steps every change shares
    # ------------------------------------------------------------------
    def _depart(self, workers: Set[int]) -> None:
        """Shrink the live set by ``workers``. Load signals die with the
        departed workers, so no placement or scaling policy ever books
        load onto them, and min_samples warmup-gates arrivals."""
        c = self.controller
        self.live_workers -= workers
        for w in sorted(workers):
            c.load_tracker.drop_worker(w)
            if c.rebalancer is not None:
                c.rebalancer.drop_worker(w)

    def _rehome_objects(self, homes: Dict[int, int],
                        departed) -> Dict[int, int]:
        """New homes for the objects of ``homes`` (oid -> home) whose home
        is in ``departed``: the surviving live workers, round-robin."""
        survivors = sorted(self.live_workers)
        moved: Dict[int, int] = {}
        for oid, home in homes.items():
            if home in departed:
                moved[oid] = survivors[len(moved) % len(survivors)]
        return moved

    def _open(self, barrier: str, expected: Optional[Set[int]] = None):
        self._barriers[barrier] = (set(), expected)

    def _ack(self, barrier: str, worker: int) -> bool:
        """Record ``worker``'s ack; True once every worker the barrier
        waits for has acked: the ``expected`` set it was opened with, or
        else every worker live right now (a worker that died since the
        barrier opened is not waited for)."""
        acked, expected = self._barriers[barrier]
        acked.add(worker)
        return acked >= (self.live_workers if expected is None else expected)

    def stopped(self) -> bool:
        """A stop-the-world phase is in progress (a checkpoint waiting for
        its acks, or a recovery): no rebalancing, no new checkpoint."""
        return self.checkpointing or self.recovering

    def _homes(self, ctx) -> Dict[int, int]:
        return {obj.oid: obj.home for obj in ctx.directory.objects()}

    # ------------------------------------------------------------------
    # Eviction, death, join, restore (§2.3, Fig. 9)
    # ------------------------------------------------------------------
    def evict_workers(self, evicted: List[int]) -> None:
        """A cluster manager revoked workers: migrate their objects and
        tasks to the survivors and regenerate worker templates (Fig. 9).

        Re-homed objects are drained through the ``build_patch``
        relocation path ``Controller.migrate_tasks`` uses: the survivors
        must hold the latest version of every object they now home, as
        the revoked workers stop being schedulable the moment this
        returns. The drain may copy *from* an evicted worker (still
        reachable while the directive runs); afterwards no control
        message targets it until :meth:`restore_workers`. Every job is
        drained: eviction is a cluster event, not a job event.
        """
        c = self.controller
        c._require_quiesced()
        evicted_set = set(evicted)
        # every precondition is checked before any state mutates: a failed
        # eviction must leave placements, templates, and the live set
        # exactly as they were (no partially drained cluster to unpick)
        unknown = sorted(evicted_set - self.live_workers)
        if unknown:
            raise RuntimeError(
                f"cannot evict workers {unknown}: not in the live set "
                f"{sorted(self.live_workers)} (never attached, already "
                f"evicted, or failed); no state was changed")
        survivors = sorted(self.live_workers - evicted_set)
        if not survivors:
            raise RuntimeError(
                f"cannot evict every worker: evicting {sorted(evicted_set)} "
                f"would leave the live set empty with nowhere to re-home "
                f"their objects and tasks; no state was changed")
        if len(survivors) < self.min_live_workers:
            raise RuntimeError(
                f"cannot evict workers {sorted(evicted_set)}: {len(survivors)}"
                f" survivor(s) {survivors} would fall below the minimum live "
                f"worker count {self.min_live_workers}; no state was changed")
        self._depart(evicted_set)
        for _job_id, ctx in sorted(c.jobs.items()):
            moved = self._rehome_objects(self._homes(ctx), evicted_set)
            c.cache.relocate(ctx, list(moved.items()))
            c.cache.rehome(ctx, regenerate_all=False)
            ctx.validation_state.invalidate()
        c.bump_partition_epoch()

    def on_worker_dead(self, worker_id: int) -> None:
        """A worker died ungracefully (crash fault, forced removal).

        Unlike :meth:`evict_workers`, death cannot wait for a window
        boundary: a grant expecting the dead worker would never drain. So
        every job's policy first reclaims the worker's granted window share
        (the jobs become quiescable), retransmissions to it stop, and the
        eviction path re-homes its objects and tasks. Data only it held is
        *not* resurrected (that is checkpoint recovery).
        """
        if worker_id not in self.live_workers:
            return
        c = self.controller
        for _job_id, ctx in sorted(c.jobs.items()):
            if ctx.policy is not None:
                ctx.policy.drop_worker(worker_id)
        self.failed_workers.add(worker_id)
        c.release_holds(c.workers[worker_id].name)  # its stream is over
        self.draining_workers.discard(worker_id)  # death outruns the drain
        self.evict_workers([worker_id])

    def add_worker(self, worker_id: int, actor) -> None:
        """A provisioned worker finished cold start: join the live set.

        The worker becomes schedulable for every job: future object
        definitions may place on it, and ``Controller.migrate_tasks`` may
        edit tasks onto it (halves ship lazily on first use,
        ``TemplateCache.install_halves``). Joining moves nothing by
        itself: a worker no work migrates onto leaves the dataflow as is.
        """
        if worker_id in self.live_workers:
            raise ValueError(f"worker {worker_id} is already live")
        c = self.controller
        c.workers[worker_id] = actor
        self.live_workers.add(worker_id)
        self.failed_workers.discard(worker_id)
        self._last_heartbeat[worker_id] = c.sim.now
        for ctx in c.jobs.values():
            order = ctx.placement.workers
            if worker_id not in order:
                order.append(worker_id)
                ctx.placement.set_workers(order)
        # late joiners missed earlier epoch broadcasts; sync before any
        # window is granted to them or they would stall immediately
        if c._decentralized_active() and c.pm_epoch:
            c.send_reliable(actor, P.EpochUpdate(c.pm_epoch))
        c.metrics.incr("scale.workers_added")

    def start_drain(self, workers: Iterable[int]) -> None:
        """Mark ``workers`` DRAINING: live, but no placement targets them."""
        self.draining_workers.update(workers)

    def finish_drain(self, worker_id: int) -> None:
        """``worker_id`` left the cluster: it is DRAINING no more."""
        self.draining_workers.discard(worker_id)

    def restore_workers(self, job_id: int, restored: List[int],
                        placement_snapshot: Dict[int, int],
                        version_snapshot: Dict[str, int]) -> None:
        """Workers returned: revert job ``job_id`` to its snapshots
        (:meth:`snapshot_placement`, :meth:`snapshot_versions`); the next
        instantiation validates them (Fig. 9). The restored workers rejoin
        the live set of every job."""
        c = self.controller
        ctx = c.jobs[job_id]
        c._require_quiesced()
        self.live_workers |= set(restored)
        for oid, home in placement_snapshot.items():
            ctx.directory.rehome(oid, home)
        c.cache.revert(ctx, version_snapshot)
        ctx.validation_state.invalidate()
        c.bump_partition_epoch()

    def snapshot_placement(self, job_id: int) -> Dict[int, int]:
        return self._homes(self.controller.jobs[job_id])

    def snapshot_versions(self, job_id: int) -> Dict[str, int]:
        return dict(self.controller.jobs[job_id].current_version)

    # ------------------------------------------------------------------
    # Checkpointing (§4.4): cluster-wide, one snapshot per unfinished job
    # ------------------------------------------------------------------
    def count_toward_checkpoint(self, blocks: int) -> None:
        """Count ``blocks`` runs of any job just closed."""
        c = self.controller
        self._blocks_since_checkpoint += blocks
        if (blocks and self.checkpoint_every is not None
                and self._blocks_since_checkpoint >= self.checkpoint_every
                and not c.runs and not self.stopped()):
            self._start_checkpoint()

    def _start_checkpoint(self) -> None:
        c = self.controller
        self.checkpointing = True
        self._blocks_since_checkpoint = 0
        checkpoint_id = self._next_checkpoint
        self._next_checkpoint += 1
        self._open("checkpoint")
        self._checkpoint_snapshots[checkpoint_id] = {
            job_id: (ctx.directory.snapshot(), self._homes(ctx),
                     list(ctx.results_history))
            for job_id, ctx in c.jobs.items() if not ctx.finished}
        for worker in self.live_workers:
            c.send_reliable(c.workers[worker], P.SaveCheckpoint(checkpoint_id))
        self._pending_checkpoint_id = checkpoint_id
        c.metrics.incr("checkpoints_started")

    def on_checkpoint_ack(self, msg: P.CheckpointAck) -> None:
        if msg.checkpoint_id != self._pending_checkpoint_id:
            return
        if self._ack("checkpoint", msg.worker_id):
            done = self.last_committed_checkpoint = msg.checkpoint_id
            self.checkpointing = False
            # recovery reads only the last committed checkpoint
            for old in [k for k in self._checkpoint_snapshots if k < done]:
                del self._checkpoint_snapshots[old]
            if self.storage is not None:
                self.storage.drop_before(done)
            self.controller.metrics.incr("checkpoints_committed")

    # ------------------------------------------------------------------
    # Failure detection and recovery (§4.4)
    # ------------------------------------------------------------------
    def start_failure_detector(self, check_interval: float = 1.0) -> None:
        c = self.controller
        self._hb_check_interval = check_interval
        for w in self.live_workers:
            self._last_heartbeat[w] = c.sim.now
        c.call_later(check_interval, self._check_heartbeats)

    def on_heartbeat(self, msg: P.Heartbeat) -> None:
        self._last_heartbeat[msg.worker_id] = self.controller.sim.now

    def _check_heartbeats(self) -> None:
        c = self.controller
        if not self.recovering:
            now = c.sim.now
            last = self._last_heartbeat
            dead = [w for w in self.live_workers
                    if now - last.get(w, now) > self.heartbeat_timeout]
            if dead:
                self._begin_recovery(dead)
        c.call_later(self._hb_check_interval, self._check_heartbeats)

    def _begin_recovery(self, dead: List[int]) -> None:
        snapshot = self._checkpoint_snapshots.get(
            self.last_committed_checkpoint)
        if snapshot is None:
            raise RuntimeError(
                f"workers {dead} failed with no committed checkpoint")
        c = self.controller
        late = [job_id for job_id, ctx in c.jobs.items()
                if not (ctx.finished or job_id in snapshot)]
        if late:
            raise RuntimeError(
                f"workers {dead} failed, and jobs {late} were registered "
                f"after the last committed checkpoint")
        self.recovering = True
        self.failed_workers |= set(dead)
        for w in dead:
            c.release_holds(c.workers[w].name)
        self._depart(set(dead))
        # in-flight blocks are abandoned and replayed. The halt wipes every
        # job's worker-side queues, so all runs are dropped (recovery is a
        # cluster-wide stop-the-world)
        c.runs.clear()
        for ctx in c.jobs.values():
            if ctx.policy is not None:
                ctx.policy.reset()  # the halt wipes worker-side grants too
        self._open("halt")
        for worker in self.live_workers:
            c.send_reliable(c.workers[worker], P.Halt())
        c.metrics.incr("recoveries_started")

    def on_halt_ack(self, msg: P.HaltAck) -> None:
        if self.recovering and self._ack("halt", msg.worker_id):
            self._restore_from_checkpoint()

    def _restore_from_checkpoint(self) -> None:
        c = self.controller
        checkpoint_id = self.last_committed_checkpoint
        per_worker_loads: Dict[int, List[int]] = {}
        snapshot = self._checkpoint_snapshots[checkpoint_id]
        for job_id, (dir_snap, homes, history) in snapshot.items():
            ctx = c.jobs.get(job_id)
            if ctx is None or ctx.finished:
                continue  # released or finished since: nothing to replay
            ctx.directory.restore(dir_snap)
            moved = self._rehome_objects(
                homes, set(homes.values()) - self.live_workers)
            loads: Dict[int, List[int]] = {}
            for oid, home in homes.items():
                home = moved.get(oid, home)
                ctx.directory.rehome(oid, home)
                loads.setdefault(home, []).append(oid)
            for worker in self.failed_workers:
                ctx.directory.evict_worker(worker)
            # every object is reloaded at its (possibly new) home at the
            # checkpointed version; the directory reflects exactly that
            for worker, oids in loads.items():
                for oid in oids:
                    ctx.directory.apply_block_delta(oid, 0, [worker])
                per_worker_loads.setdefault(worker, []).extend(oids)
            # all cached schedules referenced the dead workers: rebuild
            c.cache.rehome(ctx, regenerate_all=True)
            ctx.patch_cache.invalidate_all()
            ctx.validation_state.invalidate()
            ctx.results_history = list(history)
        self._open("load", set(per_worker_loads))
        for worker, oids in per_worker_loads.items():
            c.send_reliable(c.workers[worker],
                            P.LoadCheckpoint(checkpoint_id, oids))
        if not per_worker_loads:
            self._finish_recovery()

    def on_load_ack(self, msg: P.LoadAck) -> None:
        if self.recovering and self._ack("load", msg.worker_id):
            self._finish_recovery()

    def _finish_recovery(self) -> None:
        c = self.controller
        self.recovering = False
        for ctx in c.jobs.values():
            if ctx.driver is not None and not ctx.finished:
                c.send_reliable(ctx.driver, P.JobRestored(
                    len(ctx.results_history) + 1,
                    list(ctx.results_history)))
        c.metrics.incr("recoveries_completed")
