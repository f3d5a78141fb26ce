"""Unit tests for the discrete-event engine."""

import gc
import weakref

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(0.3, order.append, "c")
    sim.schedule(0.1, order.append, "a")
    sim.schedule(0.2, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == pytest.approx(0.3)


def test_simultaneous_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_fast(0.5, lambda: None, ())


def test_cancelled_events_are_skipped():
    sim = Simulator()
    seen = []
    event = sim.schedule(0.1, seen.append, "cancelled")
    sim.schedule(0.2, seen.append, "kept")
    event.cancel()
    sim.run()
    assert seen == ["kept"]
    assert sim.events_run == 1


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(5.0, seen.append, "late")
    sim.run(until=2.0)
    assert seen == ["early"]
    assert sim.now == pytest.approx(2.0)
    sim.run()
    assert seen == ["early", "late"]


def test_run_until_advances_clock_on_empty_heap():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == pytest.approx(3.0)


def test_max_events_budget():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(0.1 * (i + 1), seen.append, i)
    sim.run(max_events=3)
    assert seen == [0, 1, 2]
    sim.run()
    assert len(seen) == 10


def test_events_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 4:
            sim.schedule(0.1, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]
    assert sim.now == pytest.approx(0.4)


def test_step_returns_false_when_drained():
    sim = Simulator()
    sim.schedule(0.1, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_peek_time_skips_cancelled():
    sim = Simulator()
    event = sim.schedule(0.1, lambda: None)
    sim.schedule(0.5, lambda: None)
    event.cancel()
    assert sim.peek_time() == pytest.approx(0.5)


def test_halt_stops_run_immediately():
    sim = Simulator()
    seen = []
    sim.schedule(0.1, seen.append, "first")
    sim.schedule(0.2, lambda: (seen.append("stop"), sim.halt()))
    sim.schedule(0.3, seen.append, "never")
    sim.run()
    assert seen == ["first", "stop"]
    assert sim.now == pytest.approx(0.2)
    # the remaining event survives the halt and runs on the next call
    sim.run()
    assert seen == ["first", "stop", "never"]


def test_halt_stops_zero_delay_drain():
    sim = Simulator()
    seen = []
    sim.schedule(0.0, lambda: (seen.append("a"), sim.halt()))
    sim.schedule(0.0, seen.append, "b")
    sim.run()
    assert seen == ["a"]
    sim.run()
    assert seen == ["a", "b"]


def test_halt_respected_under_max_events_budget():
    sim = Simulator()
    seen = []
    sim.schedule(0.1, lambda: (seen.append(0), sim.halt()))
    for i in range(1, 5):
        sim.schedule(0.1 * (i + 1), seen.append, i)
    sim.run(max_events=10)
    assert seen == [0]


def test_halt_does_not_leak_into_next_run():
    sim = Simulator()
    sim.schedule(0.1, sim.halt)
    sim.run()
    seen = []
    sim.schedule(0.1, seen.append, "later")
    sim.run()  # a fresh run() clears the stale halt flag
    assert seen == ["later"]


def test_run_until_with_pending_zero_delay_past_deadline():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()  # now == 1.0
    seen = []
    sim.schedule(0.0, seen.append, "due-now")
    sim.run(until=0.5)  # deadline already behind now: nothing may run
    assert seen == []
    assert sim.now == pytest.approx(1.0)  # the clock must never rewind
    sim.run(until=1.0)
    assert seen == ["due-now"]


def test_run_until_behind_now_never_rewinds_clock():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.schedule(2.0, lambda: None)  # heap (non-zero-delay) pending work
    sim.run(until=0.25)
    assert sim.now == pytest.approx(1.0)
    sim.run(until=0.25, max_events=5)
    assert sim.now == pytest.approx(1.0)


def test_determinism_across_identical_runs():
    def run_once():
        sim = Simulator()
        log = []

        def tick(n):
            log.append((round(sim.now, 9), n))
            if n < 20:
                sim.schedule(0.01 * ((n * 7) % 5 + 1), tick, n + 1)

        sim.schedule(0.0, tick, 0)
        sim.run()
        return log

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# run() suspends automatic cycle collection and puts it back as it found it
# (DESIGN.md §13, "Memory discipline")
# ---------------------------------------------------------------------------
@pytest.fixture
def collector():
    """Set the collector on or off for a test; always restore it."""
    was_enabled = gc.isenabled()

    def set_enabled(enabled):
        (gc.enable if enabled else gc.disable)()

    yield set_enabled
    set_enabled(was_enabled)


def _boom():
    raise ValueError("handler failed")


def _plain(sim):
    sim.run()


def _halted(sim):
    sim.schedule(0.2, sim.halt)
    sim.run()


def _until(sim):
    sim.run(until=0.2)


def _budgeted(sim):
    sim.run(max_events=1)


def _raising(sim):
    sim.schedule(0.2, _boom)
    with pytest.raises(ValueError):
        sim.run()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("leave", [_plain, _halted, _until, _budgeted,
                                   _raising])
def test_run_restores_collector_state_on_every_way_out(collector, leave,
                                                       enabled):
    collector(enabled)
    sim = Simulator()
    inside = []
    sim.schedule(0.1, lambda: inside.append(gc.isenabled()))
    sim.schedule(0.3, lambda: None)
    leave(sim)
    assert inside == [False]  # never collecting inside a handler
    assert gc.isenabled() is enabled


def test_reentrant_run_leaves_collection_off_under_the_outer_loop(collector):
    collector(True)
    sim = Simulator()
    seen = []

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()
        seen.append(gc.isenabled())

    sim.schedule(0.1, reenter)
    sim.schedule(0.2, lambda: seen.append(gc.isenabled()))
    sim.run()
    assert seen == [False, False]
    assert gc.isenabled()


def test_explicit_collect_inside_a_handler_still_collects(collector):
    collector(True)

    class Node:
        pass

    sim = Simulator()
    seen = []

    def handler():
        node = Node()
        node.me = node  # a cycle only the collector can free
        ref = weakref.ref(node)
        del node
        seen.append(ref() is not None)
        gc.collect()
        seen.append(ref() is None)

    sim.schedule(0.1, handler)
    sim.run()
    assert seen == [True, True]
