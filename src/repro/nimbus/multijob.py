"""Multi-tenant job serving: per-job namespaces, admission, fair share.

The paper's controller serves exactly one driver. The ROADMAP's north star
(serving heavy traffic from many users) needs the controller to multiplex
N concurrent jobs without breaking the template machinery's core promise:
a job co-scheduled with strangers computes bit-identical results to the
same job running alone.

Three pieces make that hold:

* :class:`JobContext` — everything the controller used to keep as flat
  per-controller state (template namespace, object directory and version
  map, placement, patch cache, driver channel, metrics stream) becomes
  per-job. Logical object ids are namespaced by striding: job ``j``'s
  local oid ``k`` becomes global oid ``j * OID_STRIDE + k``, so worker
  object stores never collide across jobs; job 0's namespace is the
  identity.
* :class:`FairShareQueue` — a deterministic stride scheduler (weighted
  fair queueing over virtual time) ordering blocks queued behind the
  controller's dispatch cap. No RNG, no wall clock: ties break by job id,
  so serving order is a pure function of the submission sequence.
* :class:`JobManager` — admission control in front of the cluster: at
  most ``max_concurrent`` jobs hold a driver at once, at most
  ``queue_cap`` wait behind them, and overflow is rejected loudly
  (:class:`JobRejected`) rather than queued unboundedly.

Each job also carries its own scheduling mode (``mode=`` on submit,
defaulting to the cluster's): centralized per-instance dispatch,
decentralized self-scheduled windows (DESIGN.md §14), or sharded —
windows relayed through controller shards so the coordinator stays off
the steady-state path entirely (§16). Tenants of different modes
co-schedule freely; admission, placement, and release go through the
coordinator regardless of mode.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from ..core.spec import BlockSpec, LogicalTask, StageSpec
from ..core.validation import ValidationState
from .data import ObjectDirectory, PartitionPlacement
from .driver import Driver
from .runtime import FunctionRegistry

#: global-oid stride per job: job j's local oid k maps to j * STRIDE + k.
#: A power of two so apps can recover a local partition index from a
#: write-set oid with one modulo; 2^20 local objects per job is far above
#: any workload here (fig07 at 100 workers defines ~16k objects).
OID_STRIDE = 1 << 20


def job_of(cmd) -> Optional[int]:
    """The job owning a command or entry, by its first global object."""
    anchor = cmd.write[0] if cmd.write else (
        cmd.read[0] if cmd.read else None)
    return None if anchor is None else anchor // OID_STRIDE


class JobRejected(RuntimeError):
    """Admission control refused a job submission (queue overflow)."""


class JobContext:
    """Per-job controller state: template namespace, directory, driver.

    For job 0 the cluster passes its own :class:`Metrics` object, so a
    single-job run's counters and intervals are the cluster's.
    """

    __slots__ = (
        "job_id", "weight", "driver", "metrics", "directory", "placement",
        "templates", "phase", "worker_templates", "current_version",
        "assignments", "validation_state", "patch_cache", "prev_block_key",
        "pending_edits", "divergent_wts", "last_request", "skipped_requests",
        "results_history", "_block_cache", "policy",
        "finished",
    )

    def __init__(self, job_id: int, driver=None, metrics=None,
                 weight: float = 1.0, patch_cache=None):
        self.job_id = job_id
        self.weight = weight
        self.driver = driver
        self.metrics = metrics
        self.directory = ObjectDirectory()
        self.placement: Optional[PartitionPlacement] = None
        self.templates: Dict[str, Any] = {}
        self.phase: Dict[str, int] = {}
        self.worker_templates: Dict[Tuple[str, int], Any] = {}
        self.current_version: Dict[str, int] = {}
        self.assignments: Dict[Tuple[str, int], List[int]] = {}
        self.validation_state = ValidationState()
        self.patch_cache = patch_cache
        self.prev_block_key: Hashable = "job-start"
        self.pending_edits: Dict[Tuple[str, int], Dict[int, list]] = {}
        self.divergent_wts: Set[Tuple[str, int]] = set()
        #: driver request dedup (:meth:`take_request`): the highest
        #: request id taken, and the ids below it not taken yet
        self.last_request = 0
        self.skipped_requests: Set[int] = set()
        self.results_history: List[Tuple[str, Dict[str, Any]]] = []
        #: scheduling policy (set by Controller.register_job)
        self.policy = None
        # translated-block cache: keeps the original alive so the id key
        # can never be recycled under us
        self._block_cache: Dict[int, Tuple[BlockSpec, BlockSpec]] = {}
        #: FINISHED (:meth:`finish`): off the scheduling surface for good
        self.finished = False

    def take_request(self, request_id: int) -> bool:
        """Take a driver request id; False if it was taken before. Exact
        in any arrival order: an id at or below the mark and not skipped
        was taken. The skipped set holds only ids that a later one
        jumped over — the driver abandons a few unsent at a recovery
        (DESIGN.md §7) — so it stays as small as that gap."""
        if request_id > self.last_request:
            self.skipped_requests.update(
                range(self.last_request + 1, request_id))
            self.last_request = request_id
            return True
        if request_id in self.skipped_requests:
            self.skipped_requests.remove(request_id)
            return True
        return False

    def finish(self) -> None:
        """FINISHED: the job leaves the scheduling surface (DESIGN.md §12).

        Its template side goes — controller templates, worker template
        sets, assignments, queued edits and cached patches (the cache
        object stays) — so no path edits, spreads or regenerates it again:
        they all walk the emptied maps. What a later event or an observer
        reads stays: directory, placement, results, metrics, policy,
        driver and request marks. The directory folds its recorded
        template deltas now, as any later read of it would first: their
        maps have no other reader left. Host side only: nothing modelled
        moves."""
        self.finished = True
        self.directory.fold()
        self.templates, self.phase, self.current_version = {}, {}, {}
        self.worker_templates, self.assignments = {}, {}
        self.pending_edits, self.divergent_wts = {}, set()
        self.validation_state.invalidate()
        self.patch_cache.invalidate_all()
        self._block_cache = {}

    # -- oid namespacing -------------------------------------------------
    def goid(self, oid: int) -> int:
        """Local object id -> global (cluster-wide) object id. Job 0's ids
        are returned as they are: ``0 * OID_STRIDE + oid`` is an equal but
        new int, one more object per definition, held by the directory
        and the worker stores for the run."""
        if self.job_id == 0:
            return oid
        return self.job_id * OID_STRIDE + oid

    def local_oid(self, goid: int) -> int:
        """Global object id -> the job-local id the driver defined."""
        return goid % OID_STRIDE

    def translate_block(self, block: BlockSpec) -> BlockSpec:
        """Rewrite a driver block's read/write/return sets into goids.

        Job 0's namespace is the identity, so its blocks are returned
        as they are, not copied. Blocks are built once per app and
        resubmitted every iteration, so the translation is cached per
        block object.
        """
        if self.job_id == 0:
            return block
        cached = self._block_cache.get(id(block))
        if cached is not None and cached[0] is block:
            return cached[1]
        goid = self.goid
        stages = [
            StageSpec(stage.name, [
                LogicalTask(task.function,
                            read=tuple(goid(o) for o in task.read),
                            write=tuple(goid(o) for o in task.write),
                            param_slot=task.param_slot)
                for task in stage.tasks
            ])
            for stage in block.stages
        ]
        returns = {name: goid(oid) for name, oid in block.returns.items()}
        translated = BlockSpec(block.block_id, stages, returns=returns)
        self._block_cache[id(block)] = (block, translated)
        return translated


class FairShareQueue:
    """Deterministic weighted fair queueing (a stride scheduler).

    Each job has a virtual time that advances by ``cost / weight`` per
    dequeued item; ``pop`` serves the job with the lowest virtual time
    (ties break by job id). A job going from empty to backlogged re-enters
    at the global virtual time so it cannot claim credit for idle periods.
    """

    def __init__(self) -> None:
        self._queues: Dict[int, deque] = {}
        self._weights: Dict[int, float] = {}
        self._vtime: Dict[int, float] = {}
        self._global = 0.0
        self._len = 0

    def push(self, job_id: int, weight: float, item: Any,
             cost: float = 1.0) -> None:
        q = self._queues.get(job_id)
        if q is None:
            q = self._queues[job_id] = deque()
        if not q:
            self._vtime[job_id] = max(self._vtime.get(job_id, 0.0),
                                      self._global)
        self._weights[job_id] = weight
        q.append((item, cost))
        self._len += 1

    def pop(self) -> Tuple[int, Any]:
        backlogged = [j for j, q in self._queues.items() if q]
        if not backlogged:
            raise IndexError("pop from empty FairShareQueue")
        job_id = min(backlogged, key=lambda j: (self._vtime[j], j))
        item, cost = self._queues[job_id].popleft()
        self._len -= 1
        self._global = self._vtime[job_id]
        self._vtime[job_id] += cost / max(self._weights.get(job_id, 1.0),
                                          1e-9)
        return job_id, item

    def drop_job(self, job_id: int) -> int:
        """Discard everything a (cancelled) job still has queued."""
        q = self._queues.pop(job_id, None)
        dropped = len(q) if q else 0
        self._len -= dropped
        self._weights.pop(job_id, None)
        self._vtime.pop(job_id, None)
        return dropped

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0


def merged_registry(registries: List[FunctionRegistry]) -> FunctionRegistry:
    """Union several apps' registries for a shared multi-tenant cluster.

    Workers hold one registry, so co-scheduled jobs must agree on every
    function name they share. Identical re-registrations (the builtins,
    or two jobs of the same app instance) are tolerated; a true conflict
    is a configuration error and raises.
    """
    merged = FunctionRegistry()
    for registry in registries:
        for name, fn in registry._functions.items():
            if name in merged._functions:
                continue
            merged._functions[name] = fn
    return merged


class JobRecord:
    """One submitted job's lifecycle, visible to tests and benchmarks."""

    __slots__ = ("job_id", "program", "weight", "use_templates",
                 "max_inflight", "mode", "state", "submit_time",
                 "start_time", "finish_time", "driver", "metrics")

    def __init__(self, job_id: int, program, weight: float,
                 use_templates: bool, max_inflight: int,
                 submit_time: float, mode: str = "centralized"):
        self.job_id = job_id
        self.program = program
        self.weight = weight
        self.use_templates = use_templates
        self.max_inflight = max_inflight
        self.mode = mode
        self.state = "queued"  # queued|running|finished|cancelled
        self.submit_time = submit_time
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.driver: Optional[Driver] = None
        self.metrics = None

    @property
    def latency(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time


class JobManager:
    """Admission control and lifecycle for N concurrent driver programs.

    ``submit`` either admits a job (builds a per-job driver + metrics
    stream and registers a :class:`JobContext` with the controller),
    queues it behind the concurrency cap, or raises :class:`JobRejected`
    when the wait queue itself is full.
    """

    def __init__(self, cluster, max_concurrent: int = 4,
                 queue_cap: int = 16):
        self.cluster = cluster
        self.max_concurrent = max_concurrent
        self.queue_cap = queue_cap
        self.records: Dict[int, JobRecord] = {}
        self.rejections: List[Tuple[float, str]] = []
        self._pending: deque = deque()
        self._next_job_id = 1
        self._scheduled_arrivals = 0
        self._halt_when_done = False

    # -- queries ---------------------------------------------------------
    def running(self) -> List[JobRecord]:
        return [r for r in self.records.values() if r.state == "running"]

    def all_done(self) -> bool:
        return (self._scheduled_arrivals == 0 and not self._pending
                and all(r.state in ("finished", "cancelled")
                        for r in self.records.values()))

    # -- submission ------------------------------------------------------
    def submit(self, program, weight: float = 1.0,
               use_templates: Optional[bool] = None,
               max_inflight: int = 4,
               mode: Optional[str] = None) -> JobRecord:
        """``use_templates`` and ``mode`` default to the cluster's."""
        sim = self.cluster.sim
        if (len(self.running()) >= self.max_concurrent
                and len(self._pending) >= self.queue_cap):
            message = (
                f"job rejected at t={sim.now:.6f}: {len(self.running())} "
                f"jobs running (cap {self.max_concurrent}) and the wait "
                f"queue is full ({len(self._pending)}/{self.queue_cap})"
            )
            self.rejections.append((sim.now, message))
            self.cluster.metrics.incr("jobs_rejected")
            raise JobRejected(message)
        if use_templates is None:
            use_templates = self.cluster.default_use_templates
        record = JobRecord(self._next_job_id, program, weight,
                           use_templates, max_inflight, sim.now,
                           mode=mode or self.cluster.mode)
        self._next_job_id += 1
        self.records[record.job_id] = record
        if len(self.running()) < self.max_concurrent:
            self._admit(record)
        else:
            self._pending.append(record)
            self.cluster.metrics.incr("jobs_queued")
        return record

    def submit_at(self, time: float, program, **kwargs) -> None:
        """Schedule a future arrival (Poisson workloads); rejections at
        fire time are recorded in :attr:`rejections`, not raised."""
        self._scheduled_arrivals += 1

        def arrive():
            self._scheduled_arrivals -= 1
            try:
                self.submit(program, **kwargs)
            except JobRejected:
                self._maybe_halt()

        self.cluster.sim.schedule_at(time, arrive)

    # -- lifecycle -------------------------------------------------------
    def _admit(self, record: JobRecord) -> None:
        from ..sim.metrics import Metrics

        cluster = self.cluster
        metrics = Metrics()
        driver = Driver(
            cluster.sim, cluster.controller, record.program, metrics,
            use_templates=record.use_templates,
            max_inflight=record.max_inflight,
            name=f"driver-{record.job_id}", job_id=record.job_id,
            mode=record.mode,
        )
        cluster.network.attach(driver)
        if cluster.tracer is not None:
            driver._trace = cluster.tracer
        cluster.controller.register_job(
            record.job_id, driver, metrics, weight=record.weight,
            mode=record.mode)
        cluster.metrics.incr("jobs_registered")
        record.driver = driver
        record.metrics = metrics
        record.state = "running"
        record.start_time = cluster.sim.now
        driver.on_finish = lambda _driver, r=record: self._on_job_finish(r)
        driver.start()
        cluster.metrics.incr("jobs_admitted")

    def _on_job_finish(self, record: JobRecord) -> None:
        record.state = "finished"
        record.finish_time = self.cluster.sim.now
        self.cluster.metrics.incr("jobs_finished")
        self._free_finished(record.job_id)
        self._admit_next()
        self._maybe_halt()

    def _free_finished(self, job_id: int) -> None:
        """Mark a finished tenant FINISHED and free its template side on
        the controller, the rebalancer and every worker (DESIGN.md §12).
        Nothing modelled moves: no message, charge or event. Its data and
        its record stay; the modelled teardown is a release."""
        controller = self.cluster.controller
        ctx = controller.jobs.get(job_id)
        if ctx is not None:
            ctx.finish()
        if controller._dispatch_queue.drop_job(job_id):
            # the driver reports a finish only once its last request
            # completed, so nothing of the job can still be queued
            raise RuntimeError(f"job {job_id} finished with queued work")
        if controller.rebalancer is not None:
            controller.rebalancer.forget_job(job_id)
        for worker in self.cluster.workers.values():
            worker.job_finished(job_id)

    def cancel(self, job_id: int) -> None:
        """Tear a job down mid-run: its namespace is released and its
        queued dispatches are dropped so other jobs never stall on it."""
        record = self.records.get(job_id)
        if record is None:
            raise KeyError(f"unknown job {job_id}")
        if record.state in ("finished", "cancelled"):
            return  # already over: its record and counters stand
        if record.state == "queued":
            self._pending.remove(record)
        elif record.state == "running":
            from . import protocol as P
            self.cluster.controller.deliver(P.ManagerDirective(
                lambda ctrl, jid=job_id: ctrl.release_job(jid)))
        record.state = "cancelled"
        record.finish_time = self.cluster.sim.now
        self.cluster.metrics.incr("jobs_cancelled")
        self._admit_next()
        self._maybe_halt()

    def _admit_next(self) -> None:
        while self._pending and len(self.running()) < self.max_concurrent:
            self._admit(self._pending.popleft())

    def _maybe_halt(self) -> None:
        if self._halt_when_done and self.all_done():
            self.cluster.sim.halt()

    # -- driving ---------------------------------------------------------
    def run_until_all_finished(self, max_seconds: float = 1e6) -> None:
        """Run the simulation until every submitted/scheduled job ends."""
        self._halt_when_done = True
        sim = self.cluster.sim
        sim.run(until=max_seconds)
        if self.all_done():
            return
        if sim.peek_time() is None:
            raise RuntimeError(
                "simulation drained before all jobs finished "
                "(deadlocked dataflow?)"
            )
        raise RuntimeError(f"jobs did not all finish by t={max_seconds}s")
