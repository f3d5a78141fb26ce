"""The reconciliation loop: desired vs. actual workers, every interval.

:class:`ResourceController` is the autoscaler. On a fixed tick it

1. advances in-flight drains (evicting DRAINING workers at the first
   global quiesce point, decommissioning them once their queues empty),
2. spreads work onto workers whose cold start completed (deterministic
   per-block moves through the existing ``migrate_tasks`` template
   machinery — edits when small, reinstall when large, never a job
   restart), and
3. while nothing is in flight, asks its :class:`~repro.scale.policy.
   ScalePolicy` for a worker-count delta and acts on it: **scale-up**
   provisions simulated workers (cold-start delay, then
   ``Membership.add_worker``), **scale-down** marks victims DRAINING and
   reuses ``Membership.evict_workers``' patch-relocation drain.

Determinism contract (mirrors the rebalancer's): the tick is a bare
simulator callback — no actor, no cost charges, no RNG, no metrics —
until a decision actually trips, so an autoscaler-on run with no trigger
is bit-identical to an autoscaler-off run. Victim selection (highest
worker id first) and spread planning (most-crowded worker, highest entry
index first) are fully deterministic, so triggered runs are reproducible
per seed. Demand spikes come from the seeded chaos
:meth:`~repro.chaos.plan.FaultPlan.demand_step`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.edits import migration_conflict
from .policy import ScalePolicy, TargetUtilizationPolicy


class ResourceController:
    """Desired-state reconciliation between a ScalePolicy and the cluster.

    ``decisions`` is the public audit log: one dict per action with the
    simulation time, the action kind, the workers involved, and (for
    spreads) the migration mechanisms used — the scale-step benchmark
    asserts scale-up happened through the template machinery (``edits``
    or ``reinstall``), never a job restart.
    """

    def __init__(self, cluster, policy: Optional[ScalePolicy] = None,
                 interval: float = 0.25, cold_start: float = 1.0):
        if not interval > 0:  # a zero tick would never let time advance
            raise ValueError(f"interval must be above 0, got {interval}")
        if not cold_start >= 0:  # a join may not land in the past
            raise ValueError(f"cold_start must be at least 0, got "
                             f"{cold_start}")
        self.cluster = cluster
        self.policy = policy or TargetUtilizationPolicy()
        self.interval = interval
        self.cold_start = cold_start
        #: audit log of every action taken (never written on a pure tick)
        self.decisions: List[Dict] = []
        #: worker ids marked DRAINING, awaiting eviction + queue drain
        self.draining: List[int] = []
        #: worker ids provisioned but still cold-starting
        self.pending: List[int] = []
        #: worker ids joined but not yet spread onto (quiesce pending)
        self._spread_targets: List[int] = []
        self.ticks = 0
        # window modes call back at every window boundary
        cluster.controller.autoscaler = self
        # evict_workers enforces the policy floor even for manual drains
        membership = cluster.controller.membership
        membership.min_live_workers = max(
            membership.min_live_workers, self.policy.min_workers)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        sim = self.cluster.sim
        sim.schedule_at(sim.now + self.interval, self._tick)

    def _tick(self) -> None:
        sim = self.cluster.sim
        self.ticks += 1
        self.reconcile()
        sim.schedule_at(sim.now + self.interval, self._tick)

    def reconcile(self) -> None:
        """Advance drains and spreads, then decide if nothing is in
        flight: every tick, and at every self-schedule window boundary —
        the only instant a window mode's partition map is quiesced and
        its load observations are new."""
        ctrl = self.cluster.controller
        self._advance_drains(ctrl)
        self._try_spread(ctrl)
        if not self.pending and not self.draining and not self._spread_targets:
            delta = self.policy.decide(ctrl.load_tracker,
                                       sorted(ctrl.membership.live_workers))
            if delta > 0:
                self._scale_up(delta)
            elif delta < 0:
                self._begin_scale_down(-delta)

    def observe_run(self) -> None:
        """One closed run's load is in the tracker: a window reports all
        its runs at its boundary, and calibrating run by run keeps the
        target on the runs before a demand change, not the window's
        last EWMA."""
        ctrl = self.cluster.controller
        self.policy.calibrate(ctrl.load_tracker,
                              sorted(ctrl.membership.live_workers))

    def _log(self, action: str, **detail) -> None:
        entry = {"t": self.cluster.sim.now, "action": action, **detail}
        self.decisions.append(entry)
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.instant("autoscaler", "scale", "scale.decision",
                           action=action, **{
                               k: v for k, v in detail.items()
                               if isinstance(v, (int, float, str))})

    # ------------------------------------------------------------------
    # Scale-up: provision → cold start → join → spread via edits
    # ------------------------------------------------------------------
    def _scale_up(self, count: int) -> None:
        new_ids = []
        for _ in range(count):
            worker = self.cluster.provision_worker()
            new_ids.append(worker.worker_id)
            self.pending.append(worker.worker_id)
        self.cluster.metrics.incr("scale.up_decisions")
        self._log("scale_up", workers=list(new_ids),
                  count=len(new_ids), cold_start=self.cold_start)
        sim = self.cluster.sim
        sim.schedule_at(sim.now + self.cold_start, self._join, new_ids)

    def _join(self, worker_ids: List[int]) -> None:
        ctrl = self.cluster.controller
        for wid in worker_ids:
            ctrl.membership.add_worker(wid, self.cluster.workers[wid])
            self.pending.remove(wid)
        self._spread_targets.extend(worker_ids)
        self._log("join", workers=list(worker_ids))
        # the map may already be quiescent — don't wait a whole tick
        self._try_spread(ctrl)

    def _try_spread(self, ctrl) -> None:
        """Rebalance tasks onto joined workers through the template path.

        Partition-map changes need globally quiesced jobs (no
        self-schedule window in flight); until then the targets wait and
        the reconciliation loop retries each tick.

        Mechanism selection mirrors the paper's Fig. 9 split and is
        delegated to ``migrate_tasks``: a fair-share move list small
        enough for the edit threshold is applied move-by-move as template
        *edits* (skipping moves the edit planner would reject — a fresh
        worker holds no preconditions, so shared broadcast reads conflict
        past the first move); a larger list goes down in ONE call, which
        regenerates and reships the worker templates (*reinstall*). Both
        keep the job running — there is never a restart.
        """
        if not self._spread_targets:
            return
        for ctx in ctrl.jobs.values():
            if ctx.policy is not None and ctx.policy.outstanding_grants():
                return
        # never spread onto a DRAINING (or already-evicted) worker: a
        # join and a scale-down can interleave across ticks, and work
        # placed on a leaving worker would drain straight back off it
        # (serve+autoscale regression)
        targets = [w for w in self._spread_targets
                   if w in ctrl.membership.live_workers
                   and w not in ctrl.membership.draining_workers]
        self._spread_targets = []
        if not targets:
            return
        moved = 0
        mechanisms = set()
        for job_id in sorted(ctrl.jobs):
            ctx = ctrl.jobs.get(job_id)
            if ctx is None:
                continue  # cancelled since the snapshot above
            if ctx.policy is not None and ctx.policy.outstanding_grants():
                # a job admitted from the wait queue after the quiesce
                # snapshot already holds a window: requeue the targets
                # and let the next tick retry against a quiesced map
                self._spread_targets = targets
                return
            for block_id, template in sorted(ctx.templates.items()):
                moves = self._plan_spread(ctrl, ctx, block_id, targets)
                if not moves:
                    continue
                if len(moves) <= ctrl.cache.edit_limit(template):
                    # small delta: per-move edits, re-checking conflicts
                    # against the current worker templates before each
                    for ct_index, dst in moves:
                        version = ctx.current_version.get(block_id, 0)
                        wts = ctx.worker_templates.get((block_id, version))
                        if (wts is not None and migration_conflict(
                                wts, ct_index, dst) is not None):
                            continue
                        mech = ctrl.migrate_tasks(
                            block_id, [(ct_index, dst)], job_id=job_id)
                        mechanisms.add(mech)
                        moved += 1
                else:
                    # large delta: one call, migrate_tasks escalates to a
                    # template regeneration + reinstall
                    mech = ctrl.migrate_tasks(block_id, moves, job_id=job_id)
                    mechanisms.add(mech)
                    moved += len(moves)
        self.cluster.metrics.incr("scale.spread_moves", moved)
        self._log("spread", workers=list(targets), moves=moved,
                  mechanisms=sorted(mechanisms))

    @staticmethod
    def _plan_spread(ctrl, ctx, block_id: str,
                     targets: List[int]) -> List[Tuple[int, int]]:
        """Deterministic moves giving each target its fair entry share.

        Peels entries from the most-crowded worker (ties to the lowest
        id), highest controller-template index first, until each target
        holds ``num_tasks // len(live)`` entries. Planning is pure layout
        — edit-feasibility is re-checked at apply time by
        :meth:`_try_spread`, which escalates to a reinstall when the
        delta is too large for edits anyway.
        """
        template = ctx.templates[block_id]
        # DRAINING workers are on their way out: they may be peeled
        # *from* (their entries relocate at eviction anyway) but never
        # counted toward the fair share or targeted
        ms = ctrl.membership
        live = sorted(ms.live_workers - ms.draining_workers)
        if not live:
            return []
        fair = template.num_tasks // len(live)
        if fair <= 0:
            return []
        counts: Dict[int, int] = {w: 0 for w in live}
        by_worker: Dict[int, List[int]] = {w: [] for w in live}
        for i, worker in enumerate(template.workers):
            counts[worker] = counts.get(worker, 0) + 1
            by_worker.setdefault(worker, []).append(i)
        moves: List[Tuple[int, int]] = []
        for dst in sorted(targets):
            while counts.get(dst, 0) < fair:
                src = max(counts, key=lambda w: (counts[w], -w))
                if counts[src] <= counts.get(dst, 0) + 1:
                    break  # balanced: nothing left worth peeling
                if not by_worker.get(src):
                    break
                ct_index = by_worker[src].pop()
                by_worker.setdefault(dst, []).append(ct_index)
                counts[src] -= 1
                counts[dst] = counts.get(dst, 0) + 1
                moves.append((ct_index, dst))
        return moves

    # ------------------------------------------------------------------
    # Scale-down: DRAINING → evict at quiesce → decommission when empty
    # ------------------------------------------------------------------
    def _begin_scale_down(self, count: int) -> None:
        ctrl = self.cluster.controller
        live = sorted(ctrl.membership.live_workers)
        count = min(count, len(live) - self.policy.min_workers)
        if count <= 0:
            return
        victims = live[-count:]  # newest first: LIFO membership
        for wid in victims:
            self.cluster.workers[wid].lifecycle = "draining"
        # publish the DRAINING set on the membership so placement paths
        # (new-job registration, spread planning) can exclude it while
        # the victims are still technically live
        ctrl.membership.start_drain(victims)
        self.draining.extend(victims)
        self.cluster.metrics.incr("scale.down_decisions")
        self._log("scale_down", workers=list(victims), count=len(victims))

    def _advance_drains(self, ctrl) -> None:
        if not self.draining:
            return
        # eviction is the drain: it re-homes every object and template
        # entry off the victims (patch relocation) but requires globally
        # quiesced jobs — a DRAINING worker with an open self-schedule
        # window keeps its live status until the window boundary
        for ctx in ctrl.jobs.values():
            if ctx.policy is not None and ctx.policy.outstanding_grants():
                return
        ms = ctrl.membership
        victims = [w for w in self.draining if w in ms.live_workers]
        if victims:
            ms.evict_workers(victims)
            self._log("evict", workers=list(victims))
        still_draining = []
        for wid in self.draining:
            worker = self.cluster.workers[wid]
            # never kill a worker with in-flight commands or grants: it
            # stays reachable (finishing work, serving relocation reads)
            # until its queues are empty, then is decommissioned
            if (wid not in ms.live_workers
                    and worker.queued_commands == 0
                    and not worker._grants):
                worker.lifecycle = "drained"
                ms.finish_drain(wid)
                self.cluster.metrics.incr("scale.workers_drained")
                self._log("drained", workers=[wid])
            else:
                still_draining.append(wid)
        self.draining = still_draining
