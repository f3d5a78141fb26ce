"""Table 1 — template installation cost per task.

Paper (measured on the C++ implementation):

    Installing controller template              25 µs/task
    Installing worker template on controller    15 µs/task
    Installing worker template on worker         9 µs/task
    Nimbus schedule task                        134 µs/task
    Spark schedule task                         166 µs/task

This benchmark measures the *real Python implementation* on the paper's
workload (the 8,000-task logistic-regression template over 100 workers).
Absolute microseconds differ from C++; the shape that must hold is
``install ≪ central scheduling`` — installation is a modest one-time tax
(the paper reports 36 % of one centrally-scheduled iteration).
"""

from repro.apps import LRApp, LRSpec
from repro.core.controller_template import ControllerTemplate
from repro.core.worker_template import WorkerHalf, generate_worker_templates
from repro.nimbus import NimbusCluster
from repro.analysis import render_table

from conftest import anchor_assignment, emit

_RESULTS = {}


def make_app(paper_scale=True):
    n = 100 if paper_scale else 20
    return LRApp(LRSpec(num_workers=n, iterations=1))


def test_install_controller_template(benchmark, paper_scale):
    app = make_app(paper_scale)
    block = app.iteration_block
    assignment = anchor_assignment(app)

    template = benchmark(ControllerTemplate.from_block, block, assignment)
    per_task = benchmark.stats.stats.mean / template.num_tasks
    _RESULTS["install_ct"] = per_task * 1e6
    assert template.num_tasks == block.num_tasks


def test_install_worker_template_on_controller(benchmark, paper_scale):
    app = make_app(paper_scale)
    block = app.iteration_block
    assignment = anchor_assignment(app)
    template = ControllerTemplate.from_block(block, assignment)
    sizes = {oid: size for oid, _n, _p, size, _h in app.variables.definitions}

    wts = benchmark(generate_worker_templates, template, sizes)
    per_task = benchmark.stats.stats.mean / template.num_tasks
    _RESULTS["install_wt_controller"] = per_task * 1e6
    assert wts.num_commands() >= template.num_tasks


def test_install_worker_template_on_worker(benchmark, paper_scale):
    app = make_app(paper_scale)
    block = app.iteration_block
    assignment = anchor_assignment(app)
    template = ControllerTemplate.from_block(block, assignment)
    wts = generate_worker_templates(template, {})

    def install_all():
        halves = []
        for worker, entries in wts.entries.items():
            cloned = [e.clone() if e is not None else None for e in entries]
            halves.append(WorkerHalf(wts.block_id, 0, cloned, []))
        return halves

    halves = benchmark(install_all)
    per_task = benchmark.stats.stats.mean / wts.num_commands()
    _RESULTS["install_wt_worker"] = per_task * 1e6
    assert len(halves) == len(wts.entries)


def test_central_schedule_task(benchmark, paper_scale):
    """Cost of the controller's full central path for one task: dependency
    analysis, copy insertion, directory updates, and dispatch."""
    app = make_app(paper_scale)

    def schedule_block():
        cluster = NimbusCluster(app.spec.num_workers, lambda job: iter(()),
                                registry=app.registry, use_templates=False)
        controller = cluster.controller
        # register the objects directly (setup, not measured elsewhere)
        from repro.nimbus.protocol import DefineObjects
        controller._on_define_objects(
            controller.jobs[0], DefineObjects(app.variables.definitions))
        run = controller.central.run_block(
            controller.jobs[0], app.iteration_block, {"step": 0.1},
            capture=False)
        return run

    run = benchmark(schedule_block)
    per_task = benchmark.stats.stats.mean / app.iteration_block.num_tasks
    _RESULTS["central_schedule"] = per_task * 1e6
    assert run.outstanding > app.iteration_block.num_tasks  # incl. copies
    _report()


def _report():
    emit("")
    emit(render_table(
        "Table 1 — per-task installation cost (this implementation vs paper)",
        ["operation", "measured (us/task)", "paper C++ (us/task)"],
        [
            ["install controller template",
             round(_RESULTS.get("install_ct", float("nan")), 2), 25],
            ["install worker template (controller)",
             round(_RESULTS.get("install_wt_controller", float("nan")), 2), 15],
            ["install worker template (worker)",
             round(_RESULTS.get("install_wt_worker", float("nan")), 2), 9],
            ["centrally schedule one task",
             round(_RESULTS.get("central_schedule", float("nan")), 2), 134],
        ]))
    total_install = (_RESULTS.get("install_ct", 0)
                     + _RESULTS.get("install_wt_controller", 0)
                     + _RESULTS.get("install_wt_worker", 0))
    central = _RESULTS.get("central_schedule", 0)
    if central:
        emit(f"Install-vs-schedule overhead: {100 * total_install / central:.0f}% "
             f"(paper: 36%) — shape requirement: install ≪ scheduling")
        assert total_install < central, (
            "template installation must be cheaper than central scheduling")
