"""Cluster assembly: wire up a simulated Nimbus deployment.

:class:`NimbusCluster` builds the simulator, network, controller, workers,
and driver, mirroring the paper's testbed topology (§5.1): workers modeled
on c3.2xlarge (8 cores), all nodes in one full-bisection placement group.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from ..obs import Tracer, trace_enabled_default
from ..sim.engine import Simulator
from ..sim.metrics import Metrics
from ..sim.network import Network
from ..sim.rng import SeedSequence
from .controller import Controller
from .costs import SLOTS_PER_WORKER, CostModel, PAPER_COSTS
from .driver import Driver, Job
from .multijob import JobManager, JobRecord
from .runtime import FunctionRegistry
from .worker import DurableStorage, Worker


class NimbusCluster:
    """A fully wired simulated Nimbus deployment.

    ``program`` runs as job 0, registered with the controller like every
    tenant (``Controller.register_job``) once workers and shards are
    attached. ``program=None`` builds the cluster in *serve mode*: job 0
    is registered empty, with no driver, and work arrives through
    :meth:`submit_job` (or the ``JobManager`` at :attr:`jobs` directly) —
    the multi-tenant path.
    """

    #: the controller this deployment runs (a baseline may substitute a
    #: subclass; it is built with the same settings)
    controller_class = Controller

    def __init__(
        self,
        num_workers: int,
        program: Optional[Callable[[Job], Iterable]],
        registry: Optional[FunctionRegistry] = None,
        costs: Optional[CostModel] = None,
        use_templates: bool = True,
        seed: int = 0,
        latency: float = 100e-6,
        bandwidth: float = 1.25e9,
        checkpoint_every: Optional[int] = None,
        heartbeat_timeout: float = 3.0,
        straggler_scales: Optional[Dict[int, float]] = None,
        chaos_plan=None,
        patch_cache_cap: int = 256,
        trace: Optional[bool] = None,
        rebalance: bool = False,
        rebalance_threshold: float = 1.4,
        dispatch_inflight_cap: Optional[int] = None,
        max_concurrent_jobs: int = 4,
        job_queue_cap: int = 16,
        mode: str = "centralized",
        shards: Optional[int] = None,
        autoscale: bool = False,
        autoscale_interval: float = 0.25,
        autoscale_cold_start: float = 1.0,
        autoscale_max_workers: Optional[int] = None,
    ):
        if mode not in ("centralized", "decentralized", "sharded"):
            raise ValueError(
                f"unknown scheduling mode {mode!r}; "
                f"choose 'centralized', 'decentralized', or 'sharded'")
        self.mode = mode
        self.sim = Simulator()
        self.metrics = Metrics()
        # Tracing is pure observation: a traced run's virtual results are
        # bit-identical to an untraced run. None defers to REPRO_TRACE.
        if trace is None:
            trace = trace_enabled_default()
        self.tracer: Optional[Tracer] = Tracer(self.sim) if trace else None
        self.seeds = SeedSequence(seed)
        self.chaos_plan = chaos_plan
        if chaos_plan is not None:
            from ..chaos import ChaosNetwork
            self.network: Network = ChaosNetwork(
                self.sim, chaos_plan, latency=latency, bandwidth=bandwidth,
                metrics=self.metrics,
            )
        else:
            self.network = Network(self.sim, latency=latency,
                                   bandwidth=bandwidth, metrics=self.metrics)
        self.costs = costs or PAPER_COSTS
        self.registry = registry or FunctionRegistry()
        self.storage = DurableStorage()
        self._hb_interval: Optional[float] = None

        self.controller = self.controller_class(
            self.sim, self.costs, self.metrics,
            checkpoint_every=checkpoint_every,
            heartbeat_timeout=heartbeat_timeout,
            patch_cache_cap=patch_cache_cap,
            dispatch_inflight_cap=dispatch_inflight_cap,
            default_mode=mode,
        )
        self.network.attach(self.controller)
        self.controller.membership.storage = self.storage

        straggler_scales = straggler_scales or {}
        self.workers: Dict[int, Worker] = {}
        for wid in range(num_workers):
            worker = Worker(
                self.sim, wid, self.controller, self.registry, self.costs,
                self.metrics, self.storage, slots=SLOTS_PER_WORKER,
                duration_scale=straggler_scales.get(wid, 1.0),
            )
            self.network.attach(worker)
            self.workers[wid] = worker
        for worker in self.workers.values():
            worker.peers = self.workers
        self.controller.attach_workers(self.workers)

        # Controller shards (DESIGN.md §16) are always built — passive
        # actors cost nothing until a sharded job routes traffic through
        # them, and any cluster can then submit_job(mode="sharded").
        from .shard import ControllerShard, default_shard_count
        self.num_shards = shards or default_shard_count(num_workers)
        self.shards: Dict[int, ControllerShard] = {}
        for sid in range(self.num_shards):
            shard = ControllerShard(self.sim, sid, self.controller,
                                    self.costs, self.metrics)
            self.network.attach(shard)
            self.shards[sid] = shard
        self.controller.attach_shards(self.shards)

        self.default_use_templates = use_templates
        self.driver: Optional[Driver] = None
        if program is not None:
            self.driver = Driver(
                self.sim, self.controller, program, self.metrics,
                use_templates=use_templates, mode=mode,
            )
            self.network.attach(self.driver)
        self.controller.register_job(0, self.driver, self.metrics, mode=mode)

        #: multi-tenant admission: jobs submitted here run as independent
        #: namespaces alongside (or instead of) job 0
        self.jobs = JobManager(self, max_concurrent=max_concurrent_jobs,
                               queue_cap=job_queue_cap)

        if self.tracer is not None:
            self.controller._trace = self.tracer
            if self.driver is not None:
                self.driver._trace = self.tracer
            for worker in self.workers.values():
                worker._trace = self.tracer

        # Adaptive rebalancing (opt-in): workers report per-task timings
        # and the controller runs the observe→decide→edit loop. Tie-breaks
        # draw from a dedicated seed substream, so enabling the rebalancer
        # on a skew-free run leaves virtual results bit-identical.
        self.rebalancer = None
        if rebalance:
            from ..sched import GreedyLeastLoaded, Rebalancer
            self.rebalancer = Rebalancer(policy=GreedyLeastLoaded(
                threshold=rebalance_threshold,
                rng=self.seeds.stream("rebalance"),
            ))
            self.rebalancer.attach(self.controller)
            for worker in self.workers.values():
                worker.report_task_times = True

        # Elastic autoscaling (opt-in): a reconciliation loop provisions
        # and drains workers from the load EWMA. The loop is pure
        # observation until a decision trips, so autoscale=True on a
        # steady run leaves virtual results bit-identical (DESIGN.md §15).
        self.autoscaler = None
        if autoscale:
            from ..scale import ResourceController, TargetUtilizationPolicy
            policy = TargetUtilizationPolicy(
                max_workers=autoscale_max_workers or 4 * num_workers)
            self.autoscaler = ResourceController(
                self, policy, interval=autoscale_interval,
                cold_start=autoscale_cold_start)
            self.autoscaler.start()

        if chaos_plan is not None:
            chaos_plan.apply_scripted(self.sim, self.network, self.workers)

    def provision_worker(self) -> Worker:
        """Build, attach, and wire one new simulated worker (scale-up).

        The worker joins the shared peer dict immediately (data-plane
        reachable, and in scope for scripted demand events) but is *not*
        yet schedulable: the controller learns of it only when the
        autoscaler's cold start elapses and ``Membership.add_worker``
        runs. Its task-duration scale starts at the chaos plan's ambient
        demand level, so late joiners feel the same demand as everyone.
        """
        wid = max(self.workers) + 1 if self.workers else 0
        scale = 1.0
        if self.chaos_plan is not None:
            scale = self.chaos_plan.ambient_demand_scale(self.sim.now)
        worker = Worker(
            self.sim, wid, self.controller, self.registry, self.costs,
            self.metrics, self.storage, slots=SLOTS_PER_WORKER,
            duration_scale=scale,
        )
        worker.peers = self.workers
        for job_id, ctx in self.controller.jobs.items():
            if ctx.finished:  # a late joiner knows them too (DESIGN.md §12)
                worker.job_finished(job_id)
        self.network.attach(worker)
        self.workers[wid] = worker
        if self.tracer is not None:
            worker._trace = self.tracer
        if self.rebalancer is not None:
            worker.report_task_times = True
        if self._hb_interval is not None:
            worker.start_heartbeats(self._hb_interval)
        return worker

    @property
    def job(self) -> Optional[Job]:
        return self.driver.job if self.driver is not None else None

    # ------------------------------------------------------------------
    # Multi-tenant serving
    # ------------------------------------------------------------------
    def submit_job(self, program: Callable[[Job], Iterable],
                   weight: float = 1.0,
                   use_templates: Optional[bool] = None,
                   max_inflight: int = 4,
                   mode: Optional[str] = None) -> JobRecord:
        """Admit (or queue) a job under its own namespace; see JobManager.

        ``mode`` picks the job's scheduling policy (centralized,
        decentralized, or sharded), defaulting to the cluster-wide
        mode — co-scheduled jobs may mix modes freely.
        """
        return self.jobs.submit(program, weight=weight,
                                use_templates=use_templates,
                                max_inflight=max_inflight,
                                mode=mode)

    def run_until_jobs_finished(self, max_seconds: float = 1e6) -> None:
        """Run until every submitted (and scheduled) job has finished."""
        self.jobs.run_until_all_finished(max_seconds=max_seconds)

    def start_fault_tolerance(self, heartbeat_interval: float = 0.5,
                              check_interval: float = 1.0) -> None:
        """Enable heartbeats and the controller failure detector."""
        self._hb_interval = heartbeat_interval
        for worker in self.workers.values():
            worker.start_heartbeats(heartbeat_interval)
        self.controller.membership.start_failure_detector(check_interval)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> Job:
        """Start the driver program and run the simulation.

        Returns the job handle; ``job.finished`` tells whether the program
        ran to completion.
        """
        self.driver.start()
        self.sim.run(until=until, max_events=max_events)
        return self.job

    def run_until_finished(self, max_seconds: float = 1e6) -> Job:
        """Run until the driver program completes.

        The driver halts the simulator the moment its program finishes, so
        background timers (heartbeats, failure detection) do not keep the
        run alive forever — without paying a per-event completion poll.
        """
        self.driver.halt_on_finish = True
        self.driver.start()
        self.sim.run(until=max_seconds)
        if self.job.finished:
            return self.job
        if self.sim.peek_time() is None:
            raise RuntimeError(
                "simulation drained before the driver program finished "
                "(deadlocked dataflow?)"
            )
        raise RuntimeError(
            f"driver program did not finish by t={max_seconds}s"
        )
