"""Actors: simulated nodes with a serial control thread.

Every node in the system (controller, worker, driver) is an :class:`Actor`.
An actor owns a single *control thread*: messages delivered to the actor are
handled one at a time, and each handler charges virtual CPU time via
:meth:`Actor.charge`. This serial service queue is exactly what makes a
centralized control plane a bottleneck — the effect the paper measures — so
it is the load-bearing part of the simulation substrate.

Handlers run as real Python code (they mutate real template and task-graph
data structures); only the *clock* is modeled. Outgoing messages sent during
a handler depart when the handler's charged time elapses.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from .engine import Simulator


def cross_check_enabled() -> bool:
    """``REPRO_CROSS_CHECK=1``: every actor built from here on re-derives
    what its fast paths cache — fused drain hops from the raw event
    queues, compiled instantiations through ``repro.nimbus.crosscheck``,
    incremental validation against brute force — and raises on any
    difference. Pure observation: results are identical either way."""
    return os.environ.get("REPRO_CROSS_CHECK", "") not in ("", "0")


class Message:
    """Base class for messages exchanged between actors.

    ``size_bytes`` is used by the network's bandwidth model. Subclasses are
    plain data holders; handlers dispatch on type.

    ``rel_seq``/``rel_src`` are stamped onto instances by the reliable
    channel layer; the class-level ``None`` makes the unreliable-message
    check in :meth:`ReliableEndpoint.deliver` a plain attribute load.
    ``rel_after`` holds the causal stamps of a relayed message
    (:meth:`ReliableEndpoint.stamp`); empty for everything else.
    """

    size_bytes: int = 256
    rel_seq = None
    rel_src = None
    rel_after = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class _Callback(Message):
    """Internal message used to run a timer callback on the control thread."""

    size_bytes = 0

    def __init__(self, fn: Callable, args: Tuple):
        self.fn = fn
        self.args = args


class Actor:
    """A simulated node with a serial message-handling control thread.

    Subclasses override :meth:`handle` and call :meth:`charge` to account
    for control-plane CPU time. Use :meth:`send` to transmit messages via
    the attached network and :meth:`call_later` for timers (which are also
    serviced by the control thread, preserving serialization).
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.network = None  # attached by Network.attach()
        self._inbox: Deque[Message] = deque()
        self._busy_until: float = 0.0
        self._draining: bool = False
        self._charged: float = 0.0
        self._handler_start: float = 0.0
        self.busy_time: float = 0.0  # cumulative control-thread busy seconds
        #: attached Tracer, or None (the common case — every hook site
        #: guards with a single `is not None` check, nothing is allocated)
        self._trace = None
        #: oracle switch, read once per actor (see cross_check_enabled)
        self._cross_check = cross_check_enabled()

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst: "Actor", msg: Message) -> None:
        """Send ``msg`` to ``dst`` through the network.

        When called from inside a handler, the message departs once the
        handler's charged CPU time has elapsed.
        """
        if self.network is None:
            raise RuntimeError(f"actor {self.name} is not attached to a network")
        depart = max(self.sim._now, self._handler_start + self._charged)
        self.network.transmit(self, dst, msg, depart)

    def deliver(self, msg: Message) -> None:
        """Called by the network when a message arrives at this actor.

        An idle actor (empty inbox, nothing draining, not busy) handles
        the message inside the delivery event itself — equivalent to the
        drain event having been scheduled with the delivery's sequence
        number — instead of taking a queue round trip. Busy or draining
        actors enqueue as before, preserving FIFO handling.
        """
        if self._draining:
            self._inbox.append(msg)
            return
        sim = self.sim
        now = sim._now
        busy_until = self._busy_until
        if self._inbox or busy_until > now or not sim._running:
            # not idle — or delivered outside the event loop (e.g. a direct
            # kick-off before run()), where handlers must stay queued
            self._inbox.append(msg)
            self._draining = True
            sim.schedule_fast(busy_until if busy_until > now else now,
                              self._drain, ())
            return
        self._charged = 0.0
        self._handler_start = now
        if type(msg) is _Callback:
            msg.fn(*msg.args)
        else:
            self.handle(msg)
        cost = self._charged
        self._charged = 0.0
        self.busy_time += cost
        busy_until = self._busy_until = now + cost
        if self._trace is not None:
            self._trace.handler_span(
                self.name,
                msg.fn.__name__ if type(msg) is _Callback
                else type(msg).__name__,
                now, cost)
        if self._inbox:
            self._draining = True
            now = sim._now
            sim.schedule_fast(busy_until if busy_until > now else now,
                              self._drain, ())

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` on this actor's control thread after ``delay``."""
        sim = self.sim
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        sim.schedule_fast(sim._now + delay, self._timer_fire, (fn, args))

    def _timer_fire(self, fn: Callable, args: Tuple) -> None:
        """Run a timer callback, claiming an idle control thread directly.

        When the actor is idle at fire time — nothing queued, nothing
        draining, not busy — the callback runs inside the timer event
        itself (equivalent to the drain event having been scheduled with
        the timer's own sequence number), skipping the _Callback/deliver/
        drain round trip the busy case still takes. Handler semantics are
        identical: same charge accounting, same FIFO order with respect to
        queued messages (any pending message forces the fallback path).
        """
        sim = self.sim
        if self._draining or self._inbox or self._busy_until > sim._now:
            self.deliver(_Callback(fn, args))
            return
        if not self._timer_alive():
            return  # mirrors delivery to a crashed endpoint: dropped
        self._charged = 0.0
        start = self._handler_start = sim._now
        fn(*args)
        cost = self._charged
        self._charged = 0.0
        self.busy_time += cost
        busy_until = self._busy_until = start + cost
        if self._trace is not None:
            self._trace.handler_span(self.name, fn.__name__, start, cost)
        if self._inbox:
            # the callback delivered to itself synchronously; resume the
            # normal drain loop exactly as _drain would
            self._draining = True
            now = sim._now
            sim.schedule_fast(busy_until if busy_until > now else now,
                              self._drain, ())

    def _timer_alive(self) -> bool:
        """Whether timer callbacks may still run (crashed nodes drop them)."""
        return True

    # ------------------------------------------------------------------
    # Control-thread accounting
    # ------------------------------------------------------------------
    def charge(self, seconds: float) -> None:
        """Charge virtual CPU time to the current handler invocation."""
        if seconds < 0:
            raise ValueError(f"negative charge {seconds!r}")
        self._charged += seconds

    @property
    def control_queue_length(self) -> int:
        """Number of messages waiting for the control thread."""
        return len(self._inbox)

    def _drain(self) -> None:
        inbox = self._inbox
        if not inbox:
            self._draining = False
            return
        sim = self.sim
        # fused continuation: after each message, the next one is due at
        # the busy_until staircase step; when nothing else in the whole
        # simulation is due first, claim the clock via try_advance and keep
        # draining inside this one event. Each fused hop is accounted in
        # events_run, so fused and unfused runs report equal counts. A
        # traced run never fuses: the one-event-per-hop loop is what the
        # tracer observes, and the reference the tests hold fusion to.
        fused = self._trace is None
        while True:
            msg = inbox.popleft()
            self._charged = 0.0
            start = self._handler_start = sim._now
            if type(msg) is _Callback:
                msg.fn(*msg.args)
            else:
                self.handle(msg)
            cost = self._charged
            self._charged = 0.0
            self.busy_time += cost
            busy_until = self._busy_until = start + cost
            if self._trace is not None:
                self._trace.handler_span(
                    self.name,
                    msg.fn.__name__ if type(msg) is _Callback
                    else type(msg).__name__,
                    start, cost)
            if not inbox:
                self._draining = False
                return
            now = sim._now
            next_time = busy_until if busy_until > now else now
            if fused and sim.try_advance(next_time):
                if self._cross_check:
                    # independent re-derivation from the raw queues: the
                    # unfused path would schedule a drain at next_time with
                    # the next seq, and that event runs next iff no zero-
                    # delay work is pending and every heap entry is due
                    # strictly later (an entry AT next_time has a smaller
                    # seq and would run first)
                    heap = sim._heap
                    assert sim._now == next_time and not sim._zero and (
                        not heap or heap[0][0] > next_time), \
                        "fused drain hop would reorder pending events"
                sim._events_run += 1
                continue
            sim.schedule_fast(next_time, self._drain, ())
            return

    # ------------------------------------------------------------------
    # Subclass API
    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        """Handle one message. Subclasses must override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
