"""Event tracing for the control plane: the full lifecycle of every command.

The :class:`Tracer` records structured events covering driver spawn →
controller decision → dispatch → worker-queue ready → execute → complete,
plus copy send/recv, reliable-channel flows, and template
install/instantiate/validate/patch spans. Everything is *pure observation*:
no ``charge()``, no messages, no RNG draws — a traced run's virtual results
are bit-identical to an untraced run (enforced by property tests).

Span categories: ``handler`` (actor message/timer handlers), ``template``
(generate/install/instantiate/validate/patch), ``rebalance`` — one
``rebalance.decision`` span per adaptive-rebalancer decision (see
:mod:`repro.sched`), carrying the move count and the mechanism used
(``edits``/``reinstall``/``reassign``) so straggler reactions show up on
the controller row of the exported timeline — and ``scale`` — one
``scale.decision`` instant per autoscaler action (scale_up/join/spread/
scale_down/evict/drained, see :mod:`repro.scale`) on the dedicated
``autoscaler`` row.

Overhead discipline
-------------------
Tracing is off by default. ``TRACE_ENABLED`` (module-level, set from env
``REPRO_TRACE=1`` at import; the CLI ``--trace`` flag and tests use the
explicit ``trace=`` cluster parameter) gates Tracer *allocation* in
:class:`~repro.nimbus.cluster.NimbusCluster`. When no Tracer exists, every
hook in the hot paths reduces to one ``if self._trace is not None`` check
on an attribute that every :class:`~repro.sim.actor.Actor` carries — no
allocation, no string formatting, no dict lookups. ``bench/run.py`` times
its plain pass with tracing off and reports the traced pass's cost next to
it (``bench.obs_trace_overhead_x``).

Timestamps are virtual-clock seconds read from the simulator; every
recorded event also carries the engine's :meth:`~repro.sim.engine.
Simulator.order_key` sequence component so exporters can order
simultaneous events exactly as they executed.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Hashable, List, Optional, Tuple


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "") not in ("", "0")


#: module-level master switch, read once at import from ``REPRO_TRACE``.
#: Mutable (the CLI sets it for ``--trace``); cluster construction checks
#: it via :func:`trace_enabled_default` before allocating anything.
TRACE_ENABLED = _env_enabled()


def trace_enabled_default() -> bool:
    """Whether a new cluster should trace when not told explicitly.

    Re-reads the environment so a ``REPRO_TRACE=1`` exported after this
    module was imported still takes effect.
    """
    return TRACE_ENABLED or _env_enabled()


class CommandTrace:
    """Lifecycle timestamps of one command on one worker.

    ``release`` records *why* the command became ready: ``None`` means it
    was ready the moment it was enqueued (dispatch/instantiation resolved
    it immediately); ``("cmd", cid)`` means completion of a local
    dependency released it; ``("data", tag)`` means a copy payload's
    arrival released it. The critical-path analyzer walks these edges.
    """

    __slots__ = ("cid", "kind", "function", "node", "run_seq",
                 "enqueue", "ready", "start", "complete", "release")

    def __init__(self, cid: int, kind: int, function: Optional[str],
                 node: str, run_seq: Optional[int], enqueue: float):
        self.cid = cid
        self.kind = kind  # CommandKind int value
        self.function = function
        self.node = node
        self.run_seq = run_seq
        self.enqueue = enqueue
        self.ready: Optional[float] = None
        self.start: Optional[float] = None
        self.complete: Optional[float] = None
        self.release: Optional[Tuple[str, Any]] = None


class RunTrace:
    """One controller block run (one ``_BlockRun``)."""

    __slots__ = ("seq", "block_id", "mode", "request_id", "num_tasks",
                 "decide_start", "decide_end", "finish", "job_id")

    def __init__(self, seq: int, block_id: str, mode: str, request_id: int,
                 num_tasks: int, decide_start: float, job_id: int = 0):
        self.seq = seq
        self.block_id = block_id
        self.mode = mode
        self.request_id = request_id
        self.num_tasks = num_tasks
        self.decide_start = decide_start
        self.decide_end: Optional[float] = None
        self.finish: Optional[float] = None
        self.job_id = job_id


class RequestTrace:
    """One driver block request (submit → its BlockCompleteBatch item)."""

    __slots__ = ("request_id", "block_id", "submit", "cause", "complete")

    def __init__(self, request_id: int, block_id: str, submit: float,
                 cause: Optional[int]):
        self.request_id = request_id
        self.block_id = block_id
        self.submit = submit
        #: request id whose completion freed this submission (pipelining /
        #: program advance), or None for the program's own first steps
        self.cause = cause
        self.complete: Optional[float] = None


class CopyTrace:
    """One tagged data copy: SEND execution → payload arrival."""

    __slots__ = ("tag", "send_cid", "send_node", "send_ts", "arrive_node",
                 "arrive_ts", "size_bytes")

    def __init__(self, tag: Hashable):
        self.tag = tag
        self.send_cid: Optional[int] = None
        self.send_node: Optional[str] = None
        self.send_ts: Optional[float] = None
        self.arrive_node: Optional[str] = None
        self.arrive_ts: Optional[float] = None
        self.size_bytes: int = 0


class Tracer:
    """Append-only recorder for one simulated run.

    All hook methods are cheap (tuple append / attribute store) and are
    only ever called behind an ``if actor._trace is not None`` guard, so
    they may assume tracing is on.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        #: generic exportable events:
        #: ("span", node, cat, name, ts, dur, order, args)
        #: ("inst", node, cat, name, ts, order, args)
        #: ("flow", phase("s"|"f"), key, node, ts, order, type_name)
        self.events: List[Tuple] = []
        self.cmds: Dict[int, CommandTrace] = {}
        self.runs: Dict[int, RunTrace] = {}
        self.requests: Dict[int, RequestTrace] = {}
        self.copies: Dict[Hashable, CopyTrace] = {}
        self.finish_time: Optional[float] = None

    # -- internals -----------------------------------------------------
    def _order(self) -> int:
        return self.sim.order_key()[1]

    # -- generic spans and instants ------------------------------------
    def span(self, node: str, cat: str, name: str, start: float,
             dur: float, **args: Any) -> None:
        """A complete span on ``node``'s control thread."""
        self.events.append(("span", node, cat, name, start, dur,
                            self._order(), args or None))

    def instant(self, node: str, cat: str, name: str, **args: Any) -> None:
        self.events.append(("inst", node, cat, name, self.sim.now,
                            self._order(), args or None))

    def handler_span(self, node: str, name: str, start: float,
                     dur: float) -> None:
        """One actor message/timer handler invocation (charged time)."""
        if dur > 0.0:
            self.events.append(("span", node, "handler", name, start, dur,
                                self._order(), None))

    # -- command lifecycle ---------------------------------------------
    def cmd_enqueue(self, cid: int, kind: int, function: Optional[str],
                    node: str, run_seq: Optional[int]) -> None:
        self.cmds[cid] = CommandTrace(cid, kind, function, node, run_seq,
                                      self.sim.now)

    def cmd_ready(self, cid: int,
                  release: Optional[Tuple[str, Any]]) -> None:
        rec = self.cmds.get(cid)
        if rec is not None:
            rec.ready = self.sim.now
            rec.release = release

    def cmd_start(self, cid: int) -> None:
        rec = self.cmds.get(cid)
        if rec is not None:
            rec.start = self.sim.now

    def cmd_complete(self, cid: int) -> None:
        rec = self.cmds.get(cid)
        if rec is not None:
            rec.complete = self.sim.now

    # -- copies ---------------------------------------------------------
    def _copy(self, tag: Hashable) -> CopyTrace:
        rec = self.copies.get(tag)
        if rec is None:
            rec = self.copies[tag] = CopyTrace(tag)
        return rec

    def copy_send(self, tag: Hashable, cid: int, node: str,
                  size_bytes: int) -> None:
        rec = self._copy(tag)
        rec.send_cid = cid
        rec.send_node = node
        rec.send_ts = self.sim.now
        rec.size_bytes = size_bytes

    def copy_arrive(self, tag: Hashable, node: str) -> None:
        rec = self._copy(tag)
        rec.arrive_node = node
        rec.arrive_ts = self.sim.now

    # -- controller runs -----------------------------------------------
    def run_begin(self, seq: int, block_id: str, mode: str, request_id: int,
                  num_tasks: int, decide_start: float,
                  job_id: int = 0) -> None:
        self.runs[seq] = RunTrace(seq, block_id, mode, request_id,
                                  num_tasks, decide_start, job_id)

    def run_decided(self, seq: int, decide_end: float) -> None:
        rec = self.runs.get(seq)
        if rec is not None:
            rec.decide_end = decide_end
            self.events.append((
                "span", "controller", "decision",
                f"decide:{rec.block_id}", rec.decide_start,
                max(0.0, decide_end - rec.decide_start), self._order(),
                {"seq": seq, "mode": rec.mode, "tasks": rec.num_tasks,
                 "request_id": rec.request_id}))

    def run_finish(self, seq: int) -> None:
        rec = self.runs.get(seq)
        if rec is not None:
            rec.finish = self.sim.now
            self.instant("controller", "decision", f"finish:{rec.block_id}",
                         seq=seq, request_id=rec.request_id)

    # -- driver requests ------------------------------------------------
    def block_submit(self, request_id: int, block_id: str,
                     cause: Optional[int]) -> None:
        self.requests[request_id] = RequestTrace(
            request_id, block_id, self.sim.now, cause)
        self.instant("driver", "driver", f"submit:{block_id}",
                     request_id=request_id, cause=cause)

    def block_complete(self, request_id: int) -> None:
        rec = self.requests.get(request_id)
        if rec is not None:
            rec.complete = self.sim.now

    def driver_finish(self) -> None:
        self.finish_time = self.sim.now
        self.instant("driver", "driver", "program-finished")

    # -- reliable-channel flows ------------------------------------------
    def flow_send(self, src: str, dst: str, seq: int,
                  type_name: str) -> None:
        self.events.append(("flow", "s", (src, dst, seq), src,
                            self.sim.now, self._order(), type_name))

    def flow_recv(self, src: str, dst: str, seq: int) -> None:
        self.events.append(("flow", "f", (src, dst, seq), dst,
                            self.sim.now, self._order(), None))

    # -- introspection ---------------------------------------------------
    def end_time(self) -> float:
        """Trace horizon: driver finish if seen, else the last completion."""
        if self.finish_time is not None:
            return self.finish_time
        latest = 0.0
        for rec in self.cmds.values():
            if rec.complete is not None and rec.complete > latest:
                latest = rec.complete
        return latest
