"""One execution path: compiled + fused is what runs; the field-by-field
and one-event-per-hop code survives only as oracle and traced path.

A new path switch — an environment variable, or a constructor argument
that selects how instances execute — has to change this file first. So
does a second way for the repository to time itself: ``bench/run.py`` is
the one performance instrument. So does a second copy of a control-plane
decision: the instance lifecycle (decide, ship, fold, close — DESIGN.md
§14) is written once, in the controller and its template cache, and a
scheduling policy only queues and transports.
"""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

import repro
from repro import cli
from repro.cli import build_parser
from repro.baselines import naiad, spark
from repro.nimbus import NimbusCluster
from repro.nimbus import protocol
from repro.nimbus.central import CentralScheduler
from repro.nimbus.controller import Controller, _BlockRun
from repro.nimbus.data import LogicalObject, ObjectDirectory
from repro.nimbus.driver import Driver
from repro.nimbus.membership import Membership
from repro.nimbus.templates import TemplateCache
from repro.nimbus.worker import Worker
from repro.sched.policy import (CentralizedPolicy, DecentralizedPolicy,
                                SchedulingPolicy, ShardedPolicy)
from repro.sim.actor import Message

pytestmark = pytest.mark.guard

SRC = pathlib.Path(repro.__file__).parent
REPO = SRC.parent.parent


def test_src_names_exactly_two_environment_switches():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"\bREPRO_[A-Z][A-Z_]*", path.read_text()))
    assert names == {"REPRO_CROSS_CHECK", "REPRO_TRACE"}


def test_no_constructor_selects_an_execution_path():
    for cls in (Worker, NimbusCluster):
        params = inspect.signature(cls.__init__).parameters
        assert not {"use_compiled", "use_fused", "fused"} & set(params), cls
    assert not (SRC / "sim" / "fastpath.py").exists()


def test_collector_state_has_one_owner():
    """Only ``Simulator.run()`` switches the cycle collector (DESIGN.md
    §13): no second place that could leave it off, tune it, or freeze."""
    owners = {
        path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
        if re.search(r"\bgc\.(disable|enable|freeze|set_threshold)\b",
                     path.read_text())
    }
    assert owners == {"sim/engine.py"}


def test_bench_is_the_one_performance_instrument():
    """The wall-clock harness, its results file and its two subcommands
    are gone, and so is ``repro.perf``: the scenarios behind ``repro
    serve|autoscale|rebalance`` are ``repro.apps.scenarios``."""
    assert not (REPO / "BENCH_control_plane.json").exists()
    assert not [path for path in SRC.rglob("*.py")
                if "BENCH_control_plane" in path.read_text()]
    for gone in ("perf", "profile"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([gone])
    assert not (SRC / "perf").exists()
    with pytest.raises(ImportError):
        importlib.import_module("repro.perf")


def test_cli_runs_every_app_through_one_runner():
    """The app subcommands are rows of one table behind one runner
    (``cli.APPS``), which ``repro trace`` and ``repro sweep`` use too; the
    step scenarios share one probe, ``--shards`` is checked in one place,
    and an iteration's end has one definition."""
    assert set(cli.APPS) == {"lr", "kmeans", "water", "regression",
                             "rotation"}
    assert not {"cmd_lr", "cmd_kmeans", "cmd_water", "cmd_regression",
                "cmd_rotation"} & set(vars(cli))
    files = {path.relative_to(SRC).as_posix(): path.read_text()
             for path in SRC.rglob("*.py")}
    src = "".join(files.values())
    assert src.count("requires --mode sharded") == 1
    assert len(re.findall(r"^def iteration_ends\(", src, re.M)) == 1
    assert "_iteration_ends" not in src
    # nothing the benchmark imports loads the scenarios or the runner
    assert "scenarios" not in (SRC / "apps" / "__init__.py").read_text()
    assert not [name for name, text in files.items()
                if name.startswith(("apps/__init__", "nimbus/"))
                and "runner" in text]


#: the figure files and examples whose runs are ``RunSpec``s
RUN_SPEC_FILES = (
    "benchmarks/test_ablations.py",
    "benchmarks/test_fig01_spark_bottleneck.py",
    "benchmarks/test_fig07_iteration_time.py",
    "benchmarks/test_fig08_throughput.py",
    "benchmarks/test_fig09_dynamic.py",
    "benchmarks/test_fig10_migration.py",
    "benchmarks/test_fig11_water.py",
    "examples/dynamic_migration.py",
    "examples/kmeans_clustering.py",
    "examples/lr_scaling.py",
    "examples/water_simulation.py",
)


def test_figures_and_examples_run_through_execute():
    """A figure or an example states its runs as ``RunSpec``s and runs
    them with ``repro.apps.runner.execute``: it builds no cluster and
    writes no driver program of its own."""
    clusters = {"NimbusCluster", "SparkCluster", "NaiadCluster",
                "MPICluster"}
    for name in RUN_SPEC_FILES:
        tree = ast.parse((REPO / name).read_text())
        built = [ast.unparse(node.func) for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and ast.unparse(node.func).split(".")[-1] in clusters]
        programs = [node.name for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and (node.name == "program"
                         or [arg.arg for arg in node.args.args] == ["job"])]
        assert not built and not programs, (name, built, programs)
        assert "execute" in _names(tree), name


def test_one_message_class_per_hop():
    """No hop has a one-item class next to an N-item class: ``XBatch`` is
    the only shape, and a single item is a batch of one. With the twins
    gone nothing needs to ask which handler a subclass overrode."""
    messages = {name for name, cls in vars(protocol).items()
                if inspect.isclass(cls) and issubclass(cls, Message)}
    twins = {name for name in messages if name + "Batch" in messages}
    assert not twins
    # a shard re-grant is a one-grant ShardWindow
    assert len(messages - {"Message"}) == 34
    for actor in (Controller, Worker, Driver):
        assert "type(self)." not in inspect.getsource(actor), actor


def _call_sites(name, text):
    """Call sites of ``name`` in ``text``: not its import, not a
    definition or call of a longer name ending in it."""
    return len(re.findall(r"(?<!\w)" + re.escape(name) + r"\(", text))


def test_each_control_plane_decision_has_one_site():
    """Id allocation, directory deltas and patch shipping are not copied
    between the controller, the template cache and the policies: the
    three scheduling modes are bit-identical because they run the same
    statements."""
    policy = (SRC / "sched" / "policy.py").read_text()
    decisions = policy + "".join(
        (SRC / "nimbus" / name).read_text()
        for name in ("controller.py", "templates.py"))
    for call in ("delta.apply", "note_instantiation",
                 "generate_worker_templates", "build_patch",
                 "P.InstallPatch"):
        assert _call_sites(call, decisions) == 1, call
    src = "".join(path.read_text() for path in SRC.rglob("*.py"))
    assert src.count("_next_instance +=") == 1
    # edits or a reinstall: TemplateCache.edit_limit
    assert src.count("edit_threshold *") == 1
    for state in ("run.outstanding", "run.return_cids", "c._next_instance"):
        assigned = re.escape(state) + r"(\[[^\]]*\])?\s*([-+*/|&]|//)?=(?!=)"
        assert not re.search(assigned, policy), state
    # one ladder over the kinds of queued submission, one way in
    ladders = sum(path.read_text().count('== "submit"')
                  for path in SRC.rglob("*.py"))
    assert ladders == 1
    assert not [cls for cls in (SchedulingPolicy, CentralizedPolicy,
                                DecentralizedPolicy, ShardedPolicy)
                if {"instantiate", "instantiate_window", "submit_central"}
                & set(vars(cls))]


def test_worker_set_has_one_owner():
    """Every change to the worker set — eviction, join, restore, death,
    checkpoint recovery — is made by ``nimbus/membership.py``
    (DESIGN.md §6, "Membership and recovery"). The controller reads the
    live set through an alias of the same object; nothing else writes it,
    drops a departed worker's load signal, or starts a stop-the-world
    step."""
    sets = r"\b(live_workers|draining_workers|failed_workers)"
    mutation = re.compile(
        sets + r"(\s*([-|&^]=|=(?!=))|\.(add|discard|remove|pop|clear|"
        r"update|difference_update|intersection_update)\()")
    alias = "self.live_workers = self.membership.live_workers"
    writers = {
        path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
        if mutation.search(path.read_text().replace(alias, ""))
    }
    assert writers == {"nimbus/membership.py"}
    readers = {
        path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
        if re.search(r"\.(recovering|checkpointing)\b", path.read_text())
    }
    assert readers == {"nimbus/membership.py"}  # one stop-the-world test
    src = "".join(path.read_text() for path in SRC.rglob("*.py"))
    assert _call_sites("load_tracker.drop_worker", src) == 1
    assert _call_sites("rebalancer.drop_worker", src) == 1
    controller = (SRC / "nimbus" / "controller.py").read_text()
    for msg in ("P.SaveCheckpoint", "P.Halt", "P.LoadCheckpoint"):
        assert _call_sites(msg, controller) == 0, msg


def test_no_controller_method_only_forwards_to_the_membership():
    """No shim: a caller of a worker-set change goes to the membership
    itself, a caller of per-task scheduling to the central scheduler, and
    a caller of the template lifecycle to the template cache.
    ``Controller.handle`` forwards the four membership messages and the
    command completions, one line each, and that is all."""
    tree = ast.parse(inspect.getsource(Controller))
    for node in tree.body[0].body:
        if not isinstance(node, ast.FunctionDef):
            continue
        body = [stmt for stmt in node.body
                if not (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant))]
        if len(body) != 1:
            continue
        value = getattr(body[0], "value", None)
        callee = value.func if isinstance(value, ast.Call) else None
        assert not (isinstance(callee, ast.Attribute)
                    and re.match(r"self\.(membership|central|cache)\b",
                                 ast.unparse(callee.value))), node.name


def test_one_central_scheduler():
    """Per-task dispatch lives in ``nimbus/central.py`` (DESIGN.md §3):
    the controller keeps none of it, and the Spark baseline is a variant
    of the scheduler, not a second controller."""
    for gone in ("_dispatch", "_assign_worker", "_schedule_task_centrally",
                 "_dispatch_centrally", "_run_block_centrally",
                 "_on_command_complete_batch"):
        assert not hasattr(Controller, gone), gone
    assert "open" not in _BlockRun.__slots__
    controller = (SRC / "nimbus" / "controller.py").read_text()
    assert "_dispatch_buffer" not in controller  # an instance attribute
    assert "DispatchCommandBatch" not in controller
    assert not [cls for cls in vars(spark).values()
                if inspect.isclass(cls) and issubclass(cls, Controller)]
    assert issubclass(spark.SparkScheduler, CentralScheduler)


def test_template_staircase_has_one_owner():
    """The install staircase, validation, patching and edits live in
    ``nimbus/templates.py`` (DESIGN.md §3): every other module asks
    ``TemplateCache.installed``, and the Naiad baseline is a variant of
    the cache, not a second controller."""
    readers = {
        path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
        if re.search(r"PHASE_|\.phase\[|\.phase\.get\(", path.read_text())
    }
    assert readers == {"nimbus/templates.py"}
    for gone in ("_process_instantiate", "_generate_worker_templates",
                 "_install_worker_halves", "_decide_instance",
                 "_instantiate_worker_templates", "_install_new_patch",
                 "_apply_patch", "_relocate", "_drop_pending_edits",
                 "_regenerate_worker_templates", "phase"):
        assert not hasattr(Controller, gone), gone
    assert not [name for name in vars(Controller) if name.startswith("PHASE")]
    assert not hasattr(Membership, "_rehome_templates")
    assert "_grantable_wts" not in (SRC / "sched" / "policy.py").read_text()
    assert {name for name, value in vars(naiad.NaiadController).items()
            if callable(value)} == {"_on_submit_block",
                                    "_on_instantiate_block"}
    assert issubclass(naiad.NaiadTemplates, TemplateCache)


def _names(tree):
    """Every identifier, attribute, definition and argument name in
    ``tree``."""
    return {getattr(node, field) for node in ast.walk(tree)
            for field in ("id", "attr", "name", "arg")
            if isinstance(getattr(node, field, None), str)}


def test_directory_keeps_one_record_per_object():
    """The object directory's per-object state is the registered
    ``LogicalObject`` (DESIGN.md §13): ``_objects`` is its one per-object
    map (plus the records of unregistered objects), and no other module
    names the parallel maps it replaced or the raw view of them."""
    assert set(vars(ObjectDirectory())) == {
        "_objects", "_stamp", "_gone", "_deferred", "token"}
    assert {"latest", "holders", "stamp"} <= set(LogicalObject.__slots__)
    retired = {"freshness_maps", "_holders", "_latest", "_stamps"}
    for path in [*SRC.rglob("*.py"), *(REPO / "tests").rglob("*.py")]:
        if path != SRC / "nimbus" / "data.py":
            named = _names(ast.parse(path.read_text())) & retired
            assert not named, (path.relative_to(REPO).as_posix(), named)


def test_job_0_is_a_tenant():
    """Job 0 has no second job model: the controller keeps only the two
    flat job-0 views the benchmark reads, and the namespace tests job 0
    only where it hands back job 0's own objects instead of equal copies
    (``goid``'s ints, ``translate_block``'s blocks)."""
    views = {name for name, attr in vars(Controller).items()
             if isinstance(attr, property)}
    assert views == {"current_version", "worker_templates"}
    tree = ast.parse((SRC / "nimbus" / "multijob.py").read_text())
    branching = {
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.Compare)
        and ast.unparse(node) in ("self.job_id == 0", "job_id == 0")}
    assert branching == {"goid", "translate_block"}
    retired = "_job" "0"  # the hand-built job-0 context and its views
    for path in [*SRC.rglob("*.py"), *(REPO / "tests").rglob("*.py")]:
        assert retired not in path.read_text(), path.relative_to(REPO)


#: today's sizes, so simplification is monotone
LINE_CEILINGS = {
    "nimbus/controller.py": 669,
    "nimbus/central.py": 178,
    "nimbus/data.py": 419,
    "nimbus/templates.py": 398,
    "nimbus/membership.py": 384,
    "nimbus/worker.py": 1157,
    "sched/policy.py": 435,
    "nimbus/protocol.py": 763,
    "nimbus/shard.py": 141,
    "cli.py": 608,
    "apps/runner.py": 180,
    "apps/scenarios.py": 330,
    "apps/datasets.py": 118,
    "apps/lr.py": 257,
    "apps/kmeans.py": 254,
    "apps/regression.py": 236,
    "baselines/spark.py": 127,
    "baselines/naiad.py": 121,
    "core/controller_template.py": 104,
    "core/compiled.py": 767,
    "nimbus/commands.py": 159,
    "nimbus/tracker.py": 415,
    "nimbus/crosscheck.py": 337,
    "core/worker_template.py": 564,
    "core/edits.py": 339,
}


def test_cross_channel_order_lives_in_the_transport():
    """One causal barrier, in ``ReliableEndpoint`` (DESIGN.md §7, §16):
    the controller, the worker and the membership keep no handled-
    sequence map and park nothing; they stamp, release or drop holds
    through the endpoint."""
    state = re.compile(
        r"handled_seq|barrier_(seq|windows|summaries)|summary_barrier|"
        r"deferred_windows|park|ctrl_seq|channel_seq|rel_after|"
        r"_rel_(waiting|gone|recv_next)")
    for name in ("nimbus/controller.py", "nimbus/worker.py",
                 "nimbus/membership.py"):
        names = _names(ast.parse((SRC / name).read_text()))
        assert not sorted(n for n in names if state.search(n)), name


@pytest.mark.parametrize("name", sorted(LINE_CEILINGS))
def test_line_count_ratchet(name):
    lines = len((SRC / name).read_text().splitlines())
    assert lines <= LINE_CEILINGS[name], (
        f"{name} has {lines} lines, ceiling {LINE_CEILINGS[name]}: lower "
        f"the ceiling when you shrink it, never raise it")
