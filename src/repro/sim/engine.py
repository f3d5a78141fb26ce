"""Discrete-event simulation engine.

The engine maintains a virtual clock and an event heap. Everything in the
reproduction — controller, workers, driver, network — runs on top of this
engine so that control-plane costs measured in microseconds can be modeled
faithfully for clusters of 100 workers without needing the wall-clock
performance of the paper's C++ implementation.

Queue entries are plain tuples so ordering is resolved by C-level tuple
comparison; ``seq`` is a monotonically increasing tiebreaker so
simultaneous events run in schedule order, which keeps every simulation
fully deterministic. Two entry shapes share each queue — ``(time, seq,
Event)`` for cancellable events and ``(time, seq, fn, args)`` for the
fire-and-forget fast path — distinguished by length on pop; ``seq`` is
unique, so comparisons never reach the mismatched third element. Three
wall-clock fast paths keep the loop cheap:

* events scheduled at exactly the current virtual time bypass the heap and
  go to a FIFO *zero-delay queue* (the dominant case for actor control
  threads draining their inboxes);
* :meth:`Simulator.schedule_fast` skips the :class:`Event` wrapper
  entirely for callers that never cancel (timers, drains, deliveries);
* cancellation is lazy — a cancelled event stays queued and is skipped on
  pop, with a counter so the no-cancellation common case never scans;
* :meth:`Simulator.run` drains same-timestamp entries as a *cohort*: one
  clock write and one deadline check per distinct timestamp instead of per
  event. Within a cohort every heap entry precedes every zero-queue entry
  in seq order (heap entries at time T are pushed while the clock is still
  behind T; zero entries only exist once the clock reaches T), so the
  cohort drain preserves the exact per-event order of the unbatched loop;
* :meth:`Simulator.try_advance` lets an executing handler claim the clock
  up to a future instant when nothing else is due first, which is what
  allows actors to fuse whole message-drain chains into a single event.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class Event:
    """A scheduled callback. Cancellation is supported via :meth:`cancel`."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable, args: Tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from running; cancelled events are skipped."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._cancelled += 1

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} seq={self.seq}{state} {self.fn}>"


class Simulator:
    """Deterministic discrete-event simulator with a virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, my_callback, arg1)
        sim.run()
        assert sim.now >= 0.5
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        #: entries are (time, seq, Event) or (time, seq, fn, args)
        self._heap: List[Tuple] = []
        #: entries due at exactly ``now`` (FIFO; all hold time == self._now)
        self._zero: Deque[Tuple] = deque()
        self._seq: int = 0
        self._events_run: int = 0
        self._running: bool = False
        self._halted: bool = False
        #: the active run()'s deadline (None outside run / no deadline);
        #: try_advance refuses to move the clock past it
        self._until: Optional[float] = None
        #: lazily-deleted (cancelled but still queued) event count
        self._cancelled: int = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_run(self) -> int:
        """Total number of events executed so far."""
        return self._events_run

    def order_key(self) -> Tuple[float, int]:
        """``(now, seq)`` — a total order over scheduling decisions.

        Tracers stamp emitted events with this key so that simultaneous
        events export in execution order, without the engine paying any
        per-event callback cost when tracing is off.
        """
        return (self._now, self._seq)

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time!r} < now={self._now!r}"
            )
        self._seq += 1
        event = Event(time, self._seq, fn, args)
        event._sim = self
        if time == self._now:
            # zero-delay fast path: no heap insertion, plain FIFO. The
            # invariant that every queued entry has time == self._now holds
            # because the clock cannot advance while this queue is nonempty
            # (its entries are always among the earliest pending events).
            self._zero.append((time, self._seq, event))
        else:
            heapq.heappush(self._heap, (time, self._seq, event))
        return event

    def schedule_fast(self, time: float, fn: Callable, args: Tuple) -> None:
        """Schedule a callback that will never be cancelled.

        Identical ordering semantics to :meth:`schedule_at`, but the queue
        entry is a bare ``(time, seq, fn, args)`` tuple — no :class:`Event`
        allocation — so hot internal callers (actor drains and timers,
        network deliveries, task-finish callbacks) stay cheap.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time!r} < now={self._now!r}"
            )
        self._seq += 1
        if time == self._now:
            self._zero.append((time, self._seq, fn, args))
        else:
            heapq.heappush(self._heap, (time, self._seq, fn, args))

    def halt(self) -> None:
        """Stop the current :meth:`run` after the executing event returns.

        Lets an event handler (e.g. the driver finishing its program) end
        the run immediately instead of forcing the caller to single-step
        the simulation and poll for completion after every event.
        """
        self._halted = True

    def try_advance(self, time: float) -> bool:
        """Advance the clock to ``time`` iff nothing else is due first.

        The fusion primitive: an executing handler that knows its next
        action is due at ``time`` (e.g. an actor draining its inbox at its
        ``busy_until`` staircase) may claim the clock directly instead of
        scheduling a fresh event, **provided** the hop is unobservable —
        no zero-delay work pending, every heap entry strictly later than
        ``time`` (an entry *at* ``time`` was scheduled earlier, so its seq
        is smaller and it must run first), the run not halted, and ``time``
        within the active run's deadline. Returns whether the clock moved;
        on refusal the caller must fall back to normal scheduling. The
        caller accounts the fused hop via ``sim._events_run += 1`` so event
        counts stay comparable with the unfused path.
        """
        if self._halted or not self._running or self._zero:
            return False
        if time < self._now:
            return False
        until = self._until
        if until is not None and time > until:
            return False
        if self._cancelled:
            self._purge_cancelled_heads()
        heap = self._heap
        if heap and heap[0][0] <= time:
            return False
        self._now = time
        return True

    def _purge_cancelled_heads(self) -> None:
        """Drop lazily-deleted events from both queue heads."""
        zero = self._zero
        while zero:
            head = zero[0]
            if len(head) != 3 or not head[2].cancelled:
                break
            zero.popleft()
            self._cancelled -= 1
        heap = self._heap
        while heap:
            head = heap[0]
            if len(head) != 3 or not head[2].cancelled:
                break
            heapq.heappop(heap)
            self._cancelled -= 1

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if none remain."""
        if self._cancelled:
            self._purge_cancelled_heads()
        if self._zero:
            return self._now
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Run the next event. Returns ``False`` when no events remain."""
        if self._cancelled:
            self._purge_cancelled_heads()
        zero, heap = self._zero, self._heap
        if zero:
            # a zero-queue entry is due at self._now; the heap head can tie
            # only at the same time, in which case the smaller seq wins
            if heap and heap[0][0] == self._now and heap[0][1] < zero[0][1]:
                entry = heapq.heappop(heap)
            else:
                entry = zero.popleft()
        elif heap:
            entry = heapq.heappop(heap)
        else:
            return False
        self._now = entry[0]
        self._events_run += 1
        if len(entry) == 4:
            entry[2](*entry[3])
        else:
            event = entry[2]
            event.fn(*event.args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the heap drains, ``until`` passes, or
        ``max_events`` more events have executed.

        When stopped by ``until``, the clock is advanced to ``until`` so that
        callers can interleave ``run(until=...)`` with external actions.

        Automatic cycle collection is suspended for the duration of the
        loop and its previous state restored on every way out. What the
        system drops while running it frees by reference counting
        (DESIGN.md §13, "Memory discipline"); task bodies that build
        cycles of their own call ``gc.collect()`` at a quiesce point.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._halted = False
        self._until = until
        budget = max_events
        collecting = gc.isenabled()
        gc.disable()
        try:
            if budget is None:
                # cohort-batched fast path: every entry due at one
                # timestamp drains as a single cohort — one clock write
                # and one deadline check per distinct time, not per event.
                # Heap entries at the cohort time always precede zero-queue
                # entries in seq order (see module docstring), so heap-then-
                # zero preserves the exact unbatched order; handlers may
                # append more zero-delay work mid-cohort (it correctly runs
                # after, in FIFO order) but can never add heap entries at
                # the current time (schedule routes those to the zero
                # queue). Cancelled events are skipped lazily on pop (a
                # cancelled head is the queue minimum, so skipping it never
                # changes an `until` stop decision — every live event is
                # due no earlier).
                zero, heap = self._zero, self._heap
                pop = heapq.heappop
                popleft = zero.popleft
                ran = 0
                try:
                    while True:
                        if zero:
                            t = self._now
                            if until is not None and t > until:
                                # the pending zero-delay work is due *after*
                                # the deadline; leave it queued, never
                                # rewind the clock
                                return
                        else:
                            # purge cancelled heads before reading the head
                            # time: the clock must not advance to (and the
                            # run must not stop at) an instant where only
                            # dead events were due
                            if self._cancelled and heap:
                                self._purge_cancelled_heads()
                            if not heap:
                                break
                            t = heap[0][0]
                            if until is not None and t > until:
                                if until > self._now:
                                    self._now = until
                                return
                            self._now = t
                        while heap and heap[0][0] == t:
                            entry = pop(heap)
                            if len(entry) == 4:
                                ran += 1
                                entry[2](*entry[3])
                            else:
                                event = entry[2]
                                if event.cancelled:
                                    self._cancelled -= 1
                                    continue
                                ran += 1
                                event.fn(*event.args)
                            if self._halted:
                                return
                        # a handler above may have claimed the clock via
                        # try_advance (only possible with zero empty and
                        # no heap entry at or before the new now), so any
                        # zero entry below is due at the *current* now
                        while zero:
                            entry = popleft()
                            if len(entry) == 4:
                                ran += 1
                                entry[2](*entry[3])
                            else:
                                event = entry[2]
                                if event.cancelled:
                                    self._cancelled -= 1
                                    continue
                                ran += 1
                                event.fn(*event.args)
                            if self._halted:
                                return
                finally:
                    self._events_run += ran
            else:
                # budgeted path: same fused pop-and-skip as above but one
                # event at a time, charging the budget only for live
                # events. Cancelled heads are purged once up front (never
                # twice as the old peek_time()+step() pairing did), so the
                # deadline/budget decisions below always see a live head.
                zero, heap = self._zero, self._heap
                pop = heapq.heappop
                ran = 0
                try:
                    while True:
                        if self._cancelled:
                            self._purge_cancelled_heads()
                        if zero:
                            now = self._now
                            if until is not None and now > until:
                                return
                            head = heap[0] if heap else None
                            if budget <= 0:
                                return
                            if (head is not None and head[0] == now
                                    and head[1] < zero[0][1]):
                                entry = pop(heap)
                            else:
                                entry = zero.popleft()
                        elif heap:
                            if until is not None and heap[0][0] > until:
                                if until > self._now:
                                    self._now = until
                                return
                            if budget <= 0:
                                return
                            entry = pop(heap)
                        else:
                            break
                        budget -= 1
                        self._now = entry[0]
                        ran += 1
                        if len(entry) == 4:
                            entry[2](*entry[3])
                        else:
                            event = entry[2]
                            event.fn(*event.args)
                        if self._halted:
                            return
                finally:
                    self._events_run += ran
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            self._until = None
            if collecting:
                gc.enable()
