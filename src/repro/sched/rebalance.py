"""Adaptive rebalancing: closing the observe→decide→edit loop (§2.3).

The paper's dynamic-scheduling argument (Figures 9/10, Table 3) is that
template *edits* make scheduling changes cheap enough to react to
stragglers at runtime. This module supplies the missing control loop:

* **observe** — workers piggyback per-task execution timings on their
  per-instance completion messages; :class:`LoadTracker` folds them into
  an EWMA of per-worker load and per-task duration.
* **decide** — a pluggable :class:`RebalancePolicy` (default
  :class:`GreedyLeastLoaded`: straggler threshold + greedy least-loaded
  placement with deterministic, seeded tie-breaks) proposes a move list
  sized to stay under the controller's ``edit_threshold``.
* **edit** — :class:`Rebalancer` applies the moves through the existing
  :meth:`Controller.migrate_tasks` edit/patch path between instances.

Determinism contract: the observe path performs **pure observation** — no
cost charges, no metrics, no RNG draws, no message-size changes — so a run
with the rebalancer enabled but no load skew is bit-identical to a
rebalancer-off run. Randomness (tie-breaks) and metrics are only touched
once the straggler threshold actually trips.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from ..core.edits import migration_conflict
from ..core.worker_template import WorkerTemplateSet
from ..nimbus.costs import SLOTS_PER_WORKER

#: signature of the feasibility callback handed to policies
ConflictFn = Callable[[int, int], Optional[str]]


class LoadTracker:
    """EWMA load estimates for one basic block.

    ``load[w]`` tracks the per-instance compute time each worker reported
    (the sum of its task durations for one instance); ``task_time[i]``
    tracks the duration of the task with controller-template index ``i``.
    Observed durations conflate task weight with worker speed — a 2×
    straggler reports 2× durations for ordinary tasks — which is exactly
    the signal a straggler policy wants, as long as placement projections
    re-scale by destination speed (see :class:`GreedyLeastLoaded`).
    """

    def __init__(self, alpha: float = 0.5):
        self.alpha = alpha
        self.load: Dict[int, float] = {}
        self.samples: Dict[int, int] = {}
        self.task_time: Dict[int, float] = {}

    def observe(self, worker: int, compute_time: float,
                task_durations: Dict[int, float]) -> None:
        a = self.alpha
        prev = self.load.get(worker)
        self.load[worker] = (compute_time if prev is None
                             else prev + a * (compute_time - prev))
        self.samples[worker] = self.samples.get(worker, 0) + 1
        for ct_index, duration in task_durations.items():
            prev = self.task_time.get(ct_index)
            self.task_time[ct_index] = (duration if prev is None
                                        else prev + a * (duration - prev))

    def min_samples(self, workers) -> int:
        """Fewest instances observed across ``workers`` (0 if any unseen)."""
        return min((self.samples.get(w, 0) for w in workers), default=0)

    def drop_worker(self, worker: int) -> None:
        """Forget a departed worker's EWMA state (eviction, crash, drain).

        Worker-set churn is explicit: departed workers are dropped here so
        no policy ever books load onto a dead worker, and arrivals are
        warmup-gated naturally — an unseen worker keeps
        :meth:`min_samples` at 0 until it has reported real instances.
        Per-task durations (``task_time``) are keyed by controller-template
        index, not worker, so they survive the churn.
        """
        self.load.pop(worker, None)
        self.samples.pop(worker, None)

    def reset(self) -> None:
        self.load.clear()
        self.samples.clear()
        self.task_time.clear()


class RebalancePolicy:
    """Interface: map load observations to a ``migrate_tasks`` move list."""

    def propose(self, tracker: LoadTracker, wts: WorkerTemplateSet,
                live_workers, max_moves: int, conflict: ConflictFn,
                slots: int = 8) -> List[Tuple[int, int]]:
        raise NotImplementedError


class GreedyLeastLoaded(RebalancePolicy):
    """Straggler threshold + greedy least-loaded placement.

    Each worker gets an *elapsed estimate* ``e_w = max(heaviest task on w,
    load_w / slots)`` — the lower bound on how long its share of one
    instance takes. With fewer tasks than slots the heaviest-task term
    dominates (a 2× straggler gates the block until its *last* slow task
    leaves); with more tasks than slots the summed-load term dominates
    (throughput). A worker is a straggler when its estimate exceeds
    ``threshold`` times the live-worker mean. While one exists (and the
    move budget holds), the policy peels the straggler's heaviest task
    onto the least loaded destination, projecting the task's cost there by
    re-scaling its observed duration with the destination/source per-task
    speed ratio — a task that ran slow *because its worker is slow* is not
    projected to stay slow elsewhere. A move is accepted when the
    destination's projected estimate stays below the straggler's current
    one (so work is never merely shifted onto a new straggler). Ties
    between equally loaded destinations break through a seeded RNG so
    results are reproducible; the RNG is only consumed once the threshold
    has tripped, preserving the no-skew bit-identity guarantee.
    """

    def __init__(self, threshold: float = 1.4,
                 rng: Optional[random.Random] = None):
        self.threshold = threshold
        self.rng = rng or random.Random(0)

    def propose(self, tracker: LoadTracker, wts: WorkerTemplateSet,
                live_workers, max_moves: int, conflict: ConflictFn,
                slots: int = 8) -> List[Tuple[int, int]]:
        live = sorted(live_workers)
        if len(live) < 2 or slots <= 0:
            return []
        loads = {w: tracker.load.get(w, 0.0) for w in live}
        if sum(loads.values()) <= 0.0:
            return []

        # task inventory and per-task speed per worker, from the current
        # template layout and this round's (pre-move) observations
        tasks_on: Dict[int, List[int]] = {w: [] for w in live}
        for ct_index in sorted(wts.task_locations):
            worker = wts.task_locations[ct_index][0]
            if worker in loads:
                tasks_on[worker].append(ct_index)
        speed = {
            w: (loads[w] / len(tasks_on[w])) if tasks_on[w] else 0.0
            for w in live
        }
        # per-task costs as placed *by this proposal*: once a move is
        # accepted the task is booked at its speed-scaled destination cost,
        # not the straggler-inflated duration it was observed at — else the
        # destination looks like a new straggler and the loop stalls
        projected = dict(tracker.task_time)

        def estimate(w: int) -> float:
            heaviest = max(
                (projected.get(c, 0.0) for c in tasks_on[w]),
                default=0.0)
            return max(heaviest, loads[w] / slots)

        moves: List[Tuple[int, int]] = []
        while len(moves) < max_moves:
            est = {w: estimate(w) for w in live}
            mean_est = sum(est.values()) / len(live)
            src = max(live, key=lambda w: (est[w], -w))
            if mean_est <= 0.0 or est[src] < self.threshold * mean_est:
                break
            candidates = [c for c in tasks_on[src]
                          if projected.get(c, 0.0) > 0.0]
            candidates.sort(key=lambda c: (-projected[c], c))
            moved = False
            for ct_index in candidates:
                cost_src = projected[ct_index]
                order = sorted((w for w in live if w != src),
                               key=lambda w: (loads[w], w))
                if len(order) > 1 and loads[order[0]] == loads[order[1]]:
                    ties = [w for w in order if loads[w] == loads[order[0]]]
                    pick = self.rng.choice(ties)
                    order.remove(pick)
                    order.insert(0, pick)
                for dst in order:
                    cost_dst = (cost_src * speed[dst] / speed[src]
                                if speed[src] > 0 and speed[dst] > 0
                                else cost_src)
                    new_dst_est = max(est[dst], cost_dst,
                                      (loads[dst] + cost_dst) / slots)
                    if new_dst_est >= est[src]:
                        break  # would merely shift the straggle
                    if conflict(ct_index, dst) is not None:
                        continue
                    moves.append((ct_index, dst))
                    tasks_on[src].remove(ct_index)
                    tasks_on[dst].append(ct_index)
                    loads[src] -= cost_src
                    loads[dst] += cost_dst
                    projected[ct_index] = cost_dst
                    moved = True
                    break
                if moved:
                    break
            if not moved:
                break
        return moves


class Rebalancer:
    """Glue between the controller and a :class:`RebalancePolicy`.

    Attached to a :class:`~repro.nimbus.controller.Controller` by the
    cluster when ``rebalance=True``. ``observe_instance`` runs on every
    template-path instance completion (pure observation);
    ``maybe_rebalance`` runs when a block finishes and, after ``warmup``
    instances of fresh data per live worker, may commit migrations.
    After a decision the block enters a ``cooldown`` (sized to outlast the
    driver's in-flight pipeline, whose instances still run the old
    placement) and the tracker restarts from scratch, so the next decision
    only sees post-edit timings.
    """

    def __init__(self, policy: Optional[RebalancePolicy] = None,
                 alpha: float = 0.5, warmup: int = 3, cooldown: int = 5):
        self.policy = policy or GreedyLeastLoaded()
        self.alpha = alpha
        self.warmup = warmup
        self.cooldown = cooldown
        self.controller = None
        # multi-tenant: trackers and cooldowns are keyed (job_id, block_id)
        # so concurrent jobs reusing a block id observe independently
        self.trackers: Dict[Tuple[int, str], LoadTracker] = {}
        self._cooldown_left: Dict[Tuple[int, str], int] = {}
        # (job_id, block_id, version) -> {(worker, local_index): ct_index}
        self._locations_rev: Dict[Tuple[int, str, int], Dict] = {}
        #: decision log: (sim time, block_id, applied moves, mechanism)
        self.decisions: List[Tuple[float, str, List[Tuple[int, int]], str]] = []

    def attach(self, controller) -> None:
        self.controller = controller
        controller.rebalancer = self

    def drop_worker(self, worker: int) -> None:
        """Forget a departed worker across every per-block tracker.

        Mirrors :meth:`LoadTracker.drop_worker` for the rebalancer's own
        per-``(job, block)`` trackers, so a proposal computed after an
        eviction can never pick a dead worker as a migration source."""
        for tracker in self.trackers.values():
            tracker.drop_worker(worker)

    def forget_job(self, job_id: int) -> None:
        """Drop a finished job's trackers, cooldowns and reverse maps:
        :meth:`maybe_rebalance` never runs for it again."""
        for state in (self.trackers, self._cooldown_left,
                      self._locations_rev):
            for key in [k for k in state if k[0] == job_id]:
                del state[key]

    # -- observe -------------------------------------------------------
    def observe_instance(self, ctx, block_id: str, version: int, worker: int,
                         compute_time: float,
                         task_times: Optional[Dict[int, float]]) -> None:
        if ctx.current_version.get(block_id) != version:
            return  # stale instance from before a regeneration
        wts = ctx.worker_templates.get((block_id, version))
        if wts is None:
            return
        tkey = (ctx.job_id, block_id)
        tracker = self.trackers.get(tkey)
        if tracker is None:
            tracker = self.trackers[tkey] = LoadTracker(self.alpha)
        durations: Dict[int, float] = {}
        if task_times:
            rev = self._reverse_locations(ctx.job_id, block_id, version, wts)
            for local_index, duration in task_times.items():
                ct_index = rev.get((worker, local_index))
                if ct_index is not None:
                    durations[ct_index] = duration
        tracker.observe(worker, compute_time, durations)

    def _reverse_locations(self, job_id: int, block_id: str, version: int,
                           wts: WorkerTemplateSet) -> Dict:
        key = (job_id, block_id, version)
        rev = self._locations_rev.get(key)
        if rev is None:
            for stale in [k for k in self._locations_rev
                          if k[0] == job_id and k[1] == block_id]:
                del self._locations_rev[stale]
            rev = {loc: ct for ct, loc in wts.task_locations.items()}
            self._locations_rev[key] = rev
        return rev

    # -- decide + edit -------------------------------------------------
    def maybe_rebalance(self, ctx, block_id: str) -> List[Tuple[int, int]]:
        """Run the policy for ``ctx``'s ``block_id``; returns applied moves."""
        ctrl = self.controller
        tkey = (ctx.job_id, block_id)
        tracker = self.trackers.get(tkey)
        if tracker is None:
            return []
        left = self._cooldown_left.get(tkey, 0)
        if left > 0:
            self._cooldown_left[tkey] = left - 1
            if left == 1:
                # everything observed during cooldown mixes pre- and
                # post-edit placements; start the next window clean
                tracker.reset()
            return []
        wts = ctrl.cache.installed(ctx, block_id)
        if wts is None:
            return []
        live = ctrl.live_workers
        if len(live) < 2 or tracker.min_samples(live) < self.warmup:
            return []
        template = ctx.templates[block_id]
        max_moves = ctrl.cache.edit_limit(template)
        if max_moves <= 0:
            return []

        def conflict(ct_index: int, dst: int) -> Optional[str]:
            return migration_conflict(wts, ct_index, dst)

        moves = self.policy.propose(tracker, wts, live, max_moves, conflict,
                                    slots=SLOTS_PER_WORKER)
        if not moves:
            return []

        c0 = ctrl._charged
        applied: List[Tuple[int, int]] = []
        mechanism = "edits"
        for ct_index, dst in moves:
            # re-check against the *current* halves: each migrate_tasks
            # call mutates the controller half, shifting what later moves
            # may conflict with
            if migration_conflict(wts, ct_index, dst) is not None:
                continue
            mechanism = ctrl.migrate_tasks(block_id, [(ct_index, dst)],
                                           job_id=ctx.job_id)
            applied.append((ct_index, dst))
        if not applied:
            return []
        ctx.metrics.incr("rebalance_decisions")
        ctx.metrics.incr("rebalance_moves", len(applied))
        self.decisions.append(
            (ctrl.sim.now, block_id, list(applied), mechanism))
        self._cooldown_left[tkey] = self.cooldown
        tracker.reset()
        self._locations_rev.pop((ctx.job_id, block_id, wts.version), None)
        if ctrl._trace is not None:
            ctrl._trace.span(
                ctrl.name, "rebalance", "rebalance.decision",
                ctrl._handler_start + c0, ctrl._charged - c0,
                block_id=block_id, moves=len(applied), mechanism=mechanism)
        return applied
