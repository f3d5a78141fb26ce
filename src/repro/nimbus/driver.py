"""The driver: runs the application program and talks to the controller.

Application programs are Python generators over a :class:`Job` handle, so
nested loops and data-dependent branches are ordinary Python control flow —
exactly the driver-program model of Figure 3::

    def program(job):
        yield job.define(objects)
        error = 1.0
        while error > 1e-3:                       # outer loop
            for _ in range(5):                    # inner loop
                res = yield job.run(opt_block, {"step": 0.1})
            res = yield job.run(est_block, {})
            error = res["error"]

``yield job.run(...)`` blocks on the block's completion and returns the
declared driver values. ``job.post(...)`` is fire-and-forget (the dataflow
ordering is enforced by the workers, not the driver), with ``yield
job.drain()`` as a barrier; returning from the program drains too, so a
job finishes only once its last request completed.
``job.enable_templates()`` switches the driver from streaming task
descriptions to installing/instantiating templates — it can be called
mid-run, as in the experiment of Figure 9.

On failure recovery the controller replays the results history: the driver
restarts the program generator and feeds it recorded results without
resubmitting, then switches back to live execution — deterministic
programs therefore resume exactly where the checkpoint left them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.spec import BlockSpec
from ..sim.actor import Actor, Message
from ..sim.engine import Simulator
from ..sim.metrics import Metrics
from . import protocol as P


class _Kickoff(Message):
    size_bytes = 0


def _as_generator(iterable):
    """Accept any iterable of directives as a program body."""
    if hasattr(iterable, "send"):
        return iterable
    return (directive for directive in iterable)


class Job:
    """The handle a driver program uses to talk to the system."""

    def __init__(self, driver: "Driver"):
        self._driver = driver
        self.finished = False
        self.finish_time: Optional[float] = None

    # -- directives (yield these) ----------------------------------------
    def define(self, objects: List[Tuple[int, str, int, int, Optional[int]]]):
        """Declare logical objects; yield to wait until they exist."""
        return ("define", objects)

    def run(self, block: BlockSpec, params: Optional[Dict[str, Any]] = None):
        """Submit a block and wait for its completion (yield this)."""
        return ("run", block, params or {})

    def undefine(self, oids):
        """Destroy logical objects cluster-wide; yield to wait (§3.4)."""
        return ("undefine", list(oids))

    def drain(self):
        """Barrier: wait until every posted block has completed."""
        return ("drain",)

    # -- immediate calls ---------------------------------------------------
    def post(self, block: BlockSpec, params: Optional[Dict[str, Any]] = None) -> None:
        """Submit a block without waiting for completion."""
        self._driver._post(block, params or {})

    def enable_templates(self) -> None:
        self._driver.use_templates = True

    def disable_templates(self) -> None:
        self._driver.use_templates = False

    @property
    def now(self) -> float:
        return self._driver.sim.now

    @property
    def iteration_log(self) -> List[Tuple[int, float, float]]:
        """(request_id, submit_time, complete_time) per completed request."""
        return self._driver.iteration_log


class Driver(P.ReliableEndpoint, Actor):
    """Driver actor: advances the program generator on completions."""

    #: decentralized mode: successive instantiations of one installed
    #: block coalesce into windows of this many iterations (DESIGN.md §14).
    #: Larger windows amortize more controller work but coarsen the
    #: rebalancer/migration quiesce points to one per window.
    window_size = 32

    def __init__(
        self,
        sim: Simulator,
        controller,
        program: Callable[[Job], Iterable],
        metrics: Metrics,
        use_templates: bool = True,
        max_inflight: int = 4,
        name: str = "driver",
        job_id: int = 0,
        mode: str = "centralized",
    ):
        super().__init__(sim, name)
        self._init_reliable(metrics)
        self.controller = controller
        self.program = program
        self.metrics = metrics
        self.use_templates = use_templates
        #: scheduling mode: "decentralized" windows installed-block
        #: instantiations for worker self-scheduling
        self.mode = mode
        #: controller-side namespace this driver submits into. Reliable
        #: channels are keyed by actor name, so concurrent drivers must
        #: also carry unique names (the JobManager uses "driver-<id>").
        self.job_id = job_id
        #: callback invoked (with this driver) when the program has
        #: returned and its last request completed; the JobManager uses it
        #: to admit queued jobs
        self.on_finish: Optional[Callable[["Driver"], None]] = None
        #: submission backpressure: at most this many blocks in flight.
        #: Enough to pipeline control plane against computation, without
        #: flooding a saturated controller's inbox arbitrarily deep.
        self.max_inflight = max_inflight
        #: when set (by run_until_finished), program completion halts the
        #: simulator so the caller need not single-step and poll
        self.halt_on_finish = False
        self.job = Job(self)
        self.iteration_log: List[Tuple[int, float, float]] = []

        self._gen = None
        self._wait: Optional[Tuple] = None  # ("define",)|("request", id)|("drain",)
        self._outstanding = 0
        self._next_request = 1
        self._next_task_id = 1
        self._installed: set = set()  # block_ids with a controller template
        self._submit_times: Dict[int, float] = {}
        self._backlog = []  # (request_id, block, params) awaiting a slot
        #: decentralized mode: buffered (request_id, block, params) of one
        #: block awaiting window flush (all entries share a block_id)
        self._window_buffer: List[Tuple[int, BlockSpec, Dict[str, Any]]] = []

        # recovery replay state
        self._replay: List[Tuple[str, Dict[str, Any]]] = []
        self._replay_cursor = 0

        #: request id whose completion caused the submission currently
        #: being dispatched (traced only; critical-path causality edge)
        self._trace_cause: Optional[int] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin executing the program (enters the actor's handler loop)."""
        self.deliver(_Kickoff())

    def handle(self, msg: Message) -> None:
        if isinstance(msg, _Kickoff):
            self._gen = _as_generator(self.program(self.job))
            self._advance(None)
        elif isinstance(msg, P.ObjectsReady):
            if self._wait and self._wait[0] == "define":
                self._wait = None
                self._advance(None)
        elif isinstance(msg, P.BlockCompleteBatch):
            for _block_id, _seq, results, request_id, finished_at in msg.items:
                self._complete_one(request_id, results, finished_at)
        elif isinstance(msg, P.JobRestored):
            self._on_restored(msg)
        else:
            raise TypeError(f"driver got unexpected message {msg!r}")

    # ------------------------------------------------------------------
    # Program advancement
    # ------------------------------------------------------------------
    def _advance(self, value: Any) -> None:
        while True:
            try:
                directive = self._gen.send(value)
            except StopIteration:
                self._flush_window()  # posted-but-buffered work still runs
                if self._outstanding:
                    # finished means drained: the posted work completes
                    # before the job is over (and its state is freed)
                    self._wait = ("drain",)
                    return
                self.job.finished = True
                self.job.finish_time = self.sim.now
                if self._trace is not None:
                    self._trace.driver_finish()
                if self.on_finish is not None:
                    self.on_finish(self)
                if self.halt_on_finish:
                    self.sim.halt()
                return
            value = None
            kind = directive[0]
            if kind == "define":
                if self._replaying:
                    continue  # objects already exist after recovery
                self._flush_window()  # keep submission order on the wire
                self.send_reliable(self.controller, P.DefineObjects(
                    directive[1], job_id=self.job_id))
                self._wait = ("define",)
                return
            if kind == "undefine":
                if self._replaying:
                    continue
                self._flush_window()
                self.send_reliable(self.controller, P.UndefineObjects(
                    directive[1], job_id=self.job_id))
                self._wait = ("define",)  # same ack message
                return
            if kind == "run":
                _kind, block, params = directive
                if self._replaying:
                    value = self._consume_replay(block.block_id)
                    continue
                request_id = self._submit(block, params)
                self._wait = ("request", request_id)
                # a blocking run can't grow its window further: flush the
                # (possibly single-entry) buffer now
                self._flush_window()
                return
            if kind == "drain":
                if self._replaying:
                    continue
                self._flush_window()
                if self._outstanding == 0:
                    continue
                self._wait = ("drain",)
                return
            raise ValueError(f"unknown driver directive {directive!r}")

    @property
    def _replaying(self) -> bool:
        return self._replay_cursor < len(self._replay)

    def _consume_replay(self, block_id: str) -> Dict[str, Any]:
        recorded_id, results = self._replay[self._replay_cursor]
        if recorded_id != block_id:
            raise RuntimeError(
                f"non-deterministic driver program: replay expected block "
                f"{recorded_id!r}, program submitted {block_id!r}"
            )
        self._replay_cursor += 1
        return results

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _post(self, block: BlockSpec, params: Dict[str, Any]) -> None:
        if self._replaying:
            self._consume_replay(block.block_id)
            return
        self._submit(block, params)

    def _submit(self, block: BlockSpec, params: Dict[str, Any]) -> int:
        request_id = self._next_request
        self._next_request += 1
        self._outstanding += 1
        if self._windowable(block):
            buf = self._window_buffer
            if buf and buf[0][1].block_id != block.block_id:
                self._flush_window()
            self._window_buffer.append((request_id, block, params))
            if len(self._window_buffer) >= self.window_size:
                self._flush_window()
            return request_id
        self._flush_window()  # never let a window overtake this submission
        if self._outstanding > self.max_inflight:
            self._backlog.append((request_id, block, params))
        else:
            self._dispatch_request(request_id, block, params)
        return request_id

    def _windowable(self, block: BlockSpec) -> bool:
        """Can this submission join a self-schedule window?

        Only installed blocks under templates in a window-granting mode
        (decentralized or sharded): the pre-install staircase and the
        central path stay byte-identical to centralized mode. Windowed
        submissions bypass the ``max_inflight`` limit — the controller's
        policy serializes whole windows instead (one grant in flight per
        job) — but still count as outstanding so ``drain`` keeps its
        barrier semantics. While the backlog holds an earlier submission
        nothing joins a window: it queues behind, so the job's blocks
        reach the controller in program order.
        """
        return (self.mode in ("decentralized", "sharded")
                and self.use_templates and not self._backlog
                and block.block_id in self._installed)

    def _flush_window(self) -> None:
        """Ship the buffered window (if any) — the instant its requests
        actually reach the wire."""
        buf = self._window_buffer
        if buf:
            self._window_buffer = []
            self._send_instantiations(buf)

    def _stamp_request(self, request_id: int, block: BlockSpec) -> None:
        """Per-request bookkeeping as a request reaches the wire: submit
        time, ``driver_block`` interval, trace causality."""
        self._submit_times[request_id] = self.sim.now
        self.metrics.begin("driver_block", self.sim.now, key=request_id,
                           block_id=block.block_id, request_id=request_id)
        if self._trace is not None:
            self._trace.block_submit(request_id, block.block_id,
                                     self._trace_cause)

    def _send_instantiations(
            self, requests: List[Tuple[int, BlockSpec, Dict[str, Any]]],
    ) -> None:
        """Instantiate one installed block once per request. A single
        request is a plain ``InstantiateBlock`` — blocking programs in
        decentralized mode take exactly the centralized instantiation
        path — several are one ``InstantiateWindow``."""
        block = requests[0][1]
        entries = []
        for request_id, _block, params in requests:
            self._stamp_request(request_id, block)
            base = self._next_task_id
            self._next_task_id += block.num_tasks
            entries.append((request_id, base, params))
        if len(entries) == 1:
            request_id, base, params = entries[0]
            self.send_reliable(self.controller, P.InstantiateBlock(
                block.block_id, block.num_tasks, base, params, request_id,
                job_id=self.job_id))
            return
        self.send_reliable(self.controller, P.InstantiateWindow(
            block.block_id, block.num_tasks, entries, job_id=self.job_id))

    def _dispatch_request(self, request_id: int, block: BlockSpec,
                          params: Dict[str, Any]) -> None:
        if self.use_templates and block.block_id in self._installed:
            self._send_instantiations([(request_id, block, params)])
            return
        self._stamp_request(request_id, block)
        template_start = self.use_templates
        if template_start:
            self._installed.add(block.block_id)
        self.send_reliable(self.controller, P.SubmitBlock(
            block, params, template_start, request_id,
            job_id=self.job_id))

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------
    def _complete_one(self, request_id: int, results: Dict[str, Any],
                      finished_at: Optional[float]) -> None:
        self._outstanding -= 1
        if self._trace is not None:
            self._trace.block_complete(request_id)
            self._trace_cause = request_id
        if self._backlog and self._outstanding - len(self._backlog) < self.max_inflight:
            backlogged_id, block, params = self._backlog.pop(0)
            self._dispatch_request(backlogged_id, block, params)
        submit_time = self._submit_times.pop(request_id, None)
        if submit_time is not None:
            # a windowed batch reports each run's true completion time;
            # without it every iteration in the window would appear to end
            # at the batch's arrival instant. A per-instance completion
            # carries None: it ended when its message arrived
            end = finished_at if finished_at is not None else self.sim.now
            self.iteration_log.append((request_id, submit_time, end))
            self.metrics.end("driver_block", end,
                             key=request_id, results=results)
        if self._wait is None:
            self._trace_cause = None
            return
        if self._wait == ("request", request_id):
            self._wait = None
            self._advance(results)
        elif self._wait == ("drain",) and self._outstanding == 0:
            self._wait = None
            self._advance(None)
        self._trace_cause = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _on_restored(self, msg: P.JobRestored) -> None:
        # abandon open waits and in-flight requests; rebuild from history
        for request_id in list(self._submit_times):
            self.metrics.end("driver_block", self.sim.now, key=request_id,
                             aborted=True)
        self._submit_times.clear()
        self._outstanding = 0
        self._backlog.clear()
        self._window_buffer.clear()
        self._wait = None
        self._replay = list(msg.results_history)
        self._replay_cursor = 0
        # controller templates survive recovery (worker halves were
        # regenerated by the controller), so _installed is kept as-is
        self._gen = _as_generator(self.program(self.job))
        self.metrics.incr("driver_replays")
        self._advance(None)
