"""Instantiation microbenchmark on a real worker (frame + cached seam),
in time (µs per instantiation) and space (tracemalloc bytes per
instantiation).

Timed inside ``Worker._on_instantiate_template`` — command set-up,
cross-instance dependency edges, the conflict-tracker update and the
ready cascade all included — with a pipeline of instances in flight, so
the numbers cannot drift from what a workload pays. These tests pin:

* the seam is a cache that pays: in steady pipelined replay (depth 3) a
  seam hit beats the tracker-walk fallback (seam miss) — measured ≈95 µs
  against ≈155 µs;
* blocking replay (depth 1) is reported for both, ungated: its
  predecessor has drained, so hit and miss do the same work;
* a steady instantiation rewrites a pooled frame instead of rebuilding
  every Command, before-list and tag tuple: 32.1 kB measured, 40 kB
  asserted.

The field-by-field path these rows were once compared against is gone
from the worker; its last measured figures (≈470 µs, 101.3 kB) are frozen
in EXPERIMENTS.md.
"""

from repro.perf import (
    bench_instantiate_compiled,
    instantiate_allocations,
    instantiate_breakdown,
)

NUM_WORKERS = 50


def test_steady_replay_rate_is_reported():
    assert bench_instantiate_compiled(NUM_WORKERS) > 0


def test_seam_hit_beats_tracker_walk_in_pipelined_replay():
    us = instantiate_breakdown(NUM_WORKERS)
    assert set(us) == {
        f"compiled_seam_{name}_depth{depth}_us"
        for depth in (1, 3) for name in ("hit", "miss")
    }
    assert all(value > 0 for value in us.values()), us
    assert (us["compiled_seam_hit_depth3_us"]
            < us["compiled_seam_miss_depth3_us"]), us


def test_steady_instantiation_allocation_bound():
    alloc = instantiate_allocations(NUM_WORKERS)
    # ids, dependency counts, tags and the tracker's reader lists still
    # allocate; the Command objects, before lists and per-command
    # dependency sets must not be rebuilt
    assert 0 < alloc["compiled_bytes_per_instantiation"] <= 40_000, alloc
