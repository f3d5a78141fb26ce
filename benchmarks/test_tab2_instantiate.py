"""Table 2 — template instantiation cost per task.

Paper:

    Instantiate controller template                  0.2 µs/task
    Instantiate worker template (auto-validation)    1.7 µs/task
    Instantiate worker template (full validation)    7.3 µs/task

    ⇒ >500,000 tasks/s in the auto-validating inner loop;
      ~130,000 tasks/s when dynamic control flow forces full validation.

Measured against the real Python implementation on the 8,000-task
logistic-regression template. The required shape: instantiation ≪
installation ≪ central scheduling, and auto-validation < full validation.

The second half times what a worker pays per instantiation on the path
that actually runs (a pooled compiled frame plus the cached seam), inside
``Worker._on_instantiate_template`` on a real worker with a pipeline of
instances in flight — command set-up, cross-instance dependency edges,
the conflict-tracker update and the ready cascade all included:

* the seam is a cache that pays: in steady pipelined replay (depth 3) a
  seam hit beats the tracker-walk fallback (seam miss) — measured ≈47 µs
  against ≈155 µs on a two-core Xeon VM (a hit was ≈123 µs there while
  every instance still wrote its net update into the tracker's maps; it
  now joins the tracker's chain and is folded only when something reads
  the maps);
* blocking replay (depth 1) is reported for both, ungated: its
  predecessor has drained, so hit and miss do the same work (≈62 and
  ≈94 µs; ≈143 and ≈154 with the eager update);
* a steady instantiation rewrites a pooled frame instead of rebuilding
  every Command, before-list and tag tuple, and writes no reader list:
  28.4 kB measured (32.0 with the eager update), 32 kB asserted.

The field-by-field path these rows were once compared against is gone
from the worker; its last measured figures (≈470 µs, 101.3 kB) are frozen
in EXPERIMENTS.md.
"""

import tracemalloc

from repro.apps import LRApp, LRSpec
from repro.core.controller_template import ControllerTemplate
from repro.core.validation import full_validate
from repro.core.worker_template import WorkerHalf, generate_worker_templates
from repro.nimbus.crosscheck import instantiate_entries
from repro.nimbus.data import LogicalObject, ObjectDirectory
from repro.analysis import render_table

from conftest import anchor_assignment, emit
from tests.helpers import WorkerDriver

_RESULTS = {}

#: the real-worker rows below use the 50-worker LR half at either scale
PROBE_WORKERS = 50


def setup(paper_scale=True):
    n = 100 if paper_scale else 20
    app = LRApp(LRSpec(num_workers=n, iterations=1))
    block = app.iteration_block
    assignment = anchor_assignment(app)
    template = ControllerTemplate.from_block(block, assignment)
    sizes = {oid: size for oid, _n, _p, size, _h in app.variables.definitions}
    wts = generate_worker_templates(template, sizes)
    halves = {
        worker: WorkerHalf(wts.block_id, 0,
                           [e.clone() for e in entries], [])
        for worker, entries in wts.entries.items()
    }
    directory = ObjectDirectory()
    for oid, _name, _part, size, home in app.variables.definitions:
        directory.register(LogicalObject(oid, size),
                           home if home is not None else 0)
    # bring state to the template's postconditions so validation passes
    wts.delta.apply(directory)
    return app, template, wts, halves, directory


def test_instantiate_controller_template(benchmark, paper_scale):
    app, template, _wts, _halves, _dir = setup(paper_scale)

    counter = {"base": 0}

    def fill():
        counter["base"] += template.num_tasks
        return template.instantiate(counter["base"], {"step": 0.1})

    instance = benchmark(fill)
    _RESULTS["instantiate_ct"] = (
        benchmark.stats.stats.mean / template.num_tasks * 1e6)
    assert instance.task_id(0) > 0


def test_instantiate_worker_templates_auto(benchmark, paper_scale):
    """The auto-validation fast path: parameter fill + per-worker command
    materialization, no per-object checks."""
    app, template, wts, halves, _dir = setup(paper_scale)
    counter = {"base": 0, "instance": 0}

    def instantiate_all():
        counter["instance"] += 1
        commands = 0
        for worker, half in halves.items():
            counter["base"] += len(half.entries)
            cmds = instantiate_entries(half.entries, worker,
                                       counter["instance"],
                                       counter["base"], {"step": 0.1})
            commands += len(cmds)
        return commands

    commands = benchmark(instantiate_all)
    _RESULTS["instantiate_auto"] = (
        benchmark.stats.stats.mean / template.num_tasks * 1e6)
    _RESULTS["num_tasks"] = template.num_tasks
    assert commands == wts.num_commands()


def test_instantiate_worker_templates_full_validation(benchmark, paper_scale):
    """Dynamic control flow path: every precondition pair is checked
    against the object directory before instantiation."""
    app, template, wts, halves, directory = setup(paper_scale)
    counter = {"base": 0, "instance": 0}

    def validate_and_instantiate():
        violations = full_validate(wts, directory)
        counter["instance"] += 1
        commands = 0
        for worker, half in halves.items():
            counter["base"] += len(half.entries)
            cmds = instantiate_entries(half.entries, worker,
                                       counter["instance"],
                                       counter["base"], {"step": 0.1})
            commands += len(cmds)
        return violations, commands

    violations, _commands = benchmark(validate_and_instantiate)
    _RESULTS["instantiate_validate"] = (
        benchmark.stats.stats.mean / template.num_tasks * 1e6)
    assert violations == []
    _report()


def _report():
    auto = _RESULTS.get("instantiate_auto", float("nan"))
    validated = _RESULTS.get("instantiate_validate", float("nan"))
    ct = _RESULTS.get("instantiate_ct", float("nan"))
    emit("")
    emit(render_table(
        "Table 2 — per-task instantiation cost (this implementation vs paper)",
        ["operation", "measured (us/task)", "paper C++ (us/task)"],
        [
            ["instantiate controller template", round(ct, 4), 0.2],
            ["instantiate worker template (auto-validation)",
             round(auto, 3), 1.7],
            ["instantiate worker template (full validation)",
             round(validated, 3), 7.3],
        ]))
    inner = 1e6 / (ct + auto)
    dynamic = 1e6 / (ct + validated)
    emit(f"Implied scheduling throughput: {inner:,.0f} tasks/s auto-validated "
         f"(paper: >500,000), {dynamic:,.0f} tasks/s fully validated "
         f"(paper: ~130,000)")
    assert ct < auto, "parameter fill must be cheaper than instantiation"
    assert auto < validated, "auto-validation must beat full validation"


# ---------------------------------------------------------------------------
# A real worker's instantiation handler (compiled frame + cached seam)
# ---------------------------------------------------------------------------
def instantiations_per_second(depth=3, seam=True, min_seconds=0.2):
    """Rate of a real Worker's InstantiateWorkerTemplate handler (frame
    set-up, cross-instance edges, tracker update and the firing pass all
    included) at pipeline ``depth``."""
    driver = WorkerDriver(PROBE_WORKERS, depth, seam)
    while driver.seconds < min_seconds or driver.instances < driver.warm + 5:
        driver.step()
    return (driver.instances - driver.warm) / driver.seconds


def test_steady_replay_rate_is_reported():
    rate = instantiations_per_second()
    emit(f"Steady pipelined replay on a real worker: {rate:,.0f} "
         f"instantiations/s ({1e6 / rate:.1f} us each)")
    assert rate > 0


def test_seam_hit_beats_tracker_walk_in_pipelined_replay():
    us = {(name, depth): 1e6 / instantiations_per_second(
              depth, seam, min_seconds=0.1)
          for depth in (1, 3)
          for name, seam in (("hit", True), ("miss", False))}
    emit("Per-instantiation handler time (us): " + ", ".join(
        f"seam {name} depth {depth} {value:.1f}"
        for (name, depth), value in us.items()))
    assert all(value > 0 for value in us.values()), us
    assert us["hit", 3] < us["miss", 3], us


def test_steady_instantiation_allocation_bound():
    """Bytes allocated by one instantiation in steady pipelined replay,
    by tracemalloc after the pipeline is warm (the first instantiations
    build the arenas; every later one rewrites a pooled one in place)."""
    driver = WorkerDriver(PROBE_WORKERS, 3)
    msg = driver.next_message()
    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    driver.worker.handle(msg)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # ids, dependency counts and tags still allocate; the Command objects,
    # before lists, per-command dependency sets and the tracker's reader
    # lists must not be rebuilt
    assert 0 < peak - base <= 32_000, peak - base
