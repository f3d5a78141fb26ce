"""Engine cohort batching, ``try_advance``, and budget-path regressions.

The cohort-batched ``run()`` loop must be observably identical to the
one-event-per-iteration loop it replaced: the same execution order (seq
order within a timestamp, whichever queue the entries came from), the same
``halt()``/``until=`` stop points, and the same ``events_run`` accounting —
with cancellations interleaved anywhere. The property tests below build a
random scheduling script, record the ``(time, seq)`` key of every entry at
creation, and check the engine executes exactly the live entries in sorted
key order on every drive path (batched run, step loop, budgeted run).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

TIMES = [0.0, 0.1, 0.1, 0.2, 0.5]


# ---------------------------------------------------------------------------
# Scripted scenarios: ops are (kind, time_index, payload) tuples
# ---------------------------------------------------------------------------
@st.composite
def scripts(draw):
    """A random scheduling script over a handful of timestamps.

    Op kinds: 0 = schedule (cancellable Event), 1 = schedule_fast,
    2 = two back-to-back schedule_fast calls, 3 = cancel an earlier Event,
    4 = schedule an Event whose handler schedules a zero-delay follow-up
    (exercises mid-cohort appends to the zero queue).
    """
    n = draw(st.integers(3, 14))
    ops = []
    for _ in range(n):
        kind = draw(st.integers(0, 4))
        t = draw(st.integers(0, len(TIMES) - 1))
        target = draw(st.integers(0, 40)) if kind == 3 else None
        ops.append((kind, t, target))
    return ops


def _apply_script(sim, ops, order):
    """Run ``ops`` against ``sim``; return the expected execution order.

    Every scheduled entry's label is recorded with the ``(time, seq)`` key
    the engine assigned it (``sim._seq`` right after the call); the
    expectation is simply the live labels sorted by that key. Follow-up
    work scheduled from inside handlers is appended to the expectation at
    fire time by the handler itself, which keeps the oracle independent of
    any engine drain-order choice beyond the (time, seq) contract.
    """
    entries = []  # (time, seq, label, event_or_None)
    cancellable = []

    def fire(label):
        order.append(label)

    def fire_and_spawn(label):
        order.append(label)
        # zero-delay follow-up lands at (now, next seq): strictly after
        # everything already queued at this instant
        sim.schedule_fast(sim.now, fire, (f"{label}+",))
        entries.append((sim.now, sim._seq, f"{label}+", None))

    for i, (kind, t_idx, target) in enumerate(ops):
        time = TIMES[t_idx]
        label = f"op{i}"
        if kind == 0:
            event = sim.schedule_at(time, fire, label)
            entries.append((time, sim._seq, label, event))
            cancellable.append((len(entries) - 1, event))
        elif kind == 1:
            sim.schedule_fast(time, fire, (label,))
            entries.append((time, sim._seq, label, None))
        elif kind == 2:
            for suffix in "ab":
                sim.schedule_fast(time, fire, (f"{label}{suffix}",))
                entries.append((time, sim._seq, f"{label}{suffix}", None))
        elif kind == 3:
            if cancellable:
                idx, event = cancellable[target % len(cancellable)]
                event.cancel()
                entries[idx] = None
        else:
            event = sim.schedule_at(time, fire_and_spawn, label)
            entries.append((time, sim._seq, label, event))
            cancellable.append((len(entries) - 1, event))
    return entries


def _expected(entries):
    live = [e for e in entries if e is not None]
    live.sort(key=lambda e: (e[0], e[1]))
    return [label for _t, _s, label, _e in live]


@settings(max_examples=200, deadline=None)
@given(scripts())
def test_cohort_drain_executes_in_time_seq_order(ops):
    sim = Simulator()
    order = []
    entries = _apply_script(sim, ops, order)
    sim.run()
    assert order == _expected(entries)
    assert sim.events_run == len(order)


@settings(max_examples=200, deadline=None)
@given(scripts())
def test_batched_run_matches_step_loop(ops):
    batched, stepped = Simulator(), Simulator()
    order_a, order_b = [], []
    _apply_script(batched, ops, order_a)
    _apply_script(stepped, ops, order_b)
    batched.run()
    while stepped.step():
        pass
    assert order_a == order_b
    assert batched.events_run == stepped.events_run
    assert batched.now == stepped.now


@settings(max_examples=200, deadline=None)
@given(scripts(), st.sampled_from(TIMES + [0.05, 0.3, 1.0]))
def test_until_stop_identical_with_batching_on_and_off(ops, until):
    batched, stepped = Simulator(), Simulator()
    order_a, order_b = [], []
    _apply_script(batched, ops, order_a)
    _apply_script(stepped, ops, order_b)
    batched.run(until=until)
    while True:
        nxt = stepped.peek_time()
        if nxt is None or nxt > until:
            break
        stepped.step()
    assert order_a == order_b
    assert batched.events_run == stepped.events_run
    assert batched.now == max(until, stepped.now)


class _HaltingRecorder(list):
    """Execution log that halts its simulator when a chosen label fires."""

    def __init__(self):
        super().__init__()
        self.sim = None
        self.victim = None

    def append(self, label):
        super().append(label)
        if label == self.victim:
            self.sim.halt()


@settings(max_examples=150, deadline=None)
@given(scripts(), st.integers(0, 12))
def test_halt_stops_on_same_event_with_batching_on_and_off(ops, halt_at):
    def build(sim, order):
        order.sim = sim
        entries = _apply_script(sim, ops, order)
        live = _expected(entries)
        if not live:
            return None
        order.victim = live[halt_at % len(live)]
        return order.victim

    batched, stepped = Simulator(), Simulator()
    order_a, order_b = _HaltingRecorder(), _HaltingRecorder()
    victim_a = build(batched, order_a)
    victim_b = build(stepped, order_b)
    assert victim_a == victim_b
    batched.run()
    # the reference: single-event budget honours halt the same way
    while not stepped._halted and stepped.peek_time() is not None:
        stepped.run(max_events=1)
    assert order_a == order_b
    if victim_a is not None:
        assert order_a[-1] == victim_a
    assert batched.events_run == stepped.events_run


# ---------------------------------------------------------------------------
# Budget path: events_run parity with the no-budget loop (the old
# peek_time()+step() pairing purged cancelled heads twice per event)
# ---------------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(scripts())
def test_events_run_matches_between_budget_and_no_budget_paths(ops):
    plain, budgeted = Simulator(), Simulator()
    order_a, order_b = [], []
    _apply_script(plain, ops, order_a)
    _apply_script(budgeted, ops, order_b)
    plain.run()
    budgeted.run(max_events=10_000)
    assert order_a == order_b
    assert plain.events_run == budgeted.events_run
    assert plain.now == budgeted.now


@settings(max_examples=150, deadline=None)
@given(scripts(), st.integers(1, 6))
def test_budget_path_resumes_to_identical_totals(ops, chunk):
    plain, chunked = Simulator(), Simulator()
    order_a, order_b = [], []
    _apply_script(plain, ops, order_a)
    _apply_script(chunked, ops, order_b)
    plain.run()
    while chunked.peek_time() is not None:
        before = chunked.events_run
        chunked.run(max_events=chunk)
        if chunked.events_run == before:
            break  # nothing live left within the budget
    assert order_a == order_b
    assert plain.events_run == chunked.events_run


def test_budget_purges_cancelled_heads_once_and_counts_live_only():
    sim = Simulator()
    seen = []
    cancelled = [sim.schedule(0.1, seen.append, i) for i in range(3)]
    for event in cancelled:
        event.cancel()
    sim.schedule(0.2, seen.append, "live")
    sim.run(max_events=1)
    assert seen == ["live"]
    assert sim.events_run == 1
    assert sim._cancelled == 0


# ---------------------------------------------------------------------------
# try_advance: the fusion primitive
# ---------------------------------------------------------------------------
def test_try_advance_refuses_outside_run():
    sim = Simulator()
    assert not sim.try_advance(1.0)
    assert sim.now == 0.0


def test_try_advance_claims_clock_when_nothing_due_first():
    sim = Simulator()
    log = []

    def handler():
        assert sim.try_advance(0.5)
        log.append(sim.now)

    sim.schedule_fast(0.1, handler, ())
    sim.schedule_fast(0.9, log.append, (None,))
    sim.run()
    assert log[0] == 0.5
    assert sim.now == 0.9


def test_try_advance_refuses_pending_zero_work_and_earlier_heap():
    sim = Simulator()
    results = {}

    def handler():
        sim.schedule_fast(sim.now, lambda: None, ())
        results["zero_pending"] = sim.try_advance(0.5)

    def handler2():
        # heap holds an entry at 0.4 <= 0.5: refuse (it must run first)
        results["heap_earlier"] = sim.try_advance(0.5)
        results["heap_equal"] = sim.try_advance(0.4)

    sim.schedule_fast(0.1, handler, ())
    sim.schedule_fast(0.2, handler2, ())
    sim.schedule_fast(0.4, lambda: None, ())
    sim.run()
    assert results == {"zero_pending": False, "heap_earlier": False,
                       "heap_equal": False}


def test_try_advance_purges_cancelled_heap_head():
    sim = Simulator()
    results = {}
    blocker = sim.schedule(0.3, lambda: None)

    def handler():
        blocker.cancel()
        results["after_cancel"] = sim.try_advance(0.5)

    sim.schedule_fast(0.1, handler, ())
    sim.schedule_fast(0.9, lambda: None, ())
    sim.run()
    assert results == {"after_cancel": True}


def test_try_advance_respects_until_deadline():
    sim = Simulator()
    results = {}

    def handler():
        results["past"] = sim.try_advance(0.8)
        results["within"] = sim.try_advance(0.4)

    sim.schedule_fast(0.1, handler, ())
    sim.run(until=0.5)
    assert results == {"past": False, "within": True}
    assert sim.now == 0.5


def test_try_advance_never_rewinds():
    sim = Simulator()
    results = {}

    def handler():
        results["behind"] = sim.try_advance(0.05)

    sim.schedule_fast(0.1, handler, ())
    sim.run()
    assert results == {"behind": False}
