"""Fold a cProfile run into the repo's layers.

A layer is one module of ``repro`` (or one package, for the small ones).
Every profiled function belongs to exactly one layer, so layer self times
add up to the profiler's total; ``python.builtins`` collects C builtins,
the standard library and numpy, ``bench`` the benchmark's own driver
programs, and ``repro.other`` whatever module of ``repro`` is not named
below (cluster assembly, metrics, the obs hooks).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

_BENCH_ROOT = os.path.dirname(os.path.abspath(__file__)) + os.sep
_REPRO_ROOT = os.path.join(os.path.dirname(_BENCH_ROOT[:-1]),
                           "src", "repro") + os.sep

#: module path under ``repro/`` -> layer
MODULE_LAYERS = {
    "sim/engine.py": "sim.engine",
    "sim/actor.py": "sim.actor",
    "sim/network.py": "sim.network",
    "nimbus/protocol.py": "nimbus.protocol",
    "nimbus/controller.py": "nimbus.controller",
    "nimbus/worker.py": "nimbus.worker",
    "nimbus/driver.py": "nimbus.driver",
    "nimbus/multijob.py": "nimbus.multijob",
    "nimbus/shard.py": "nimbus.shard",
    "nimbus/data.py": "nimbus.data",
    "nimbus/commands.py": "nimbus.commands",
    "core/controller_template.py": "core.controller_template",
    "core/worker_template.py": "core.worker_template",
    "core/compiled.py": "core.compiled",
    "core/validation.py": "core.validation",
    "core/patching.py": "core.patching",
    "core/edits.py": "core.edits",
}
#: package under ``repro/`` -> layer, for packages reported as one layer
PACKAGE_LAYERS = {"sched": "sched", "scale": "scale", "apps": "apps"}

LAYERS: Tuple[str, ...] = (
    *MODULE_LAYERS.values(), *PACKAGE_LAYERS.values(),
    "repro.other", "bench", "python.builtins")

#: layer boundaries whose callers are tabulated: (module, qualified name)
BOUNDARIES: Tuple[Tuple[str, str], ...] = (
    ("nimbus/controller.py", "Controller.handle"),
    ("nimbus/worker.py", "Worker.handle"),
    ("nimbus/driver.py", "Driver.handle"),
    ("nimbus/shard.py", "ControllerShard.handle"),
    ("sim/network.py", "Network.transmit"),
    ("core/worker_template.py", "generate_worker_templates"),
    ("core/compiled.py", "compile_plan"),
    ("core/validation.py", "full_validate"),
    ("core/patching.py", "build_patch"),
    ("core/controller_template.py", "ControllerTemplate.from_block"),
    ("nimbus/controller.py", "Controller.migrate_tasks"),
)


def _locate(code: Any) -> Tuple[str, str]:
    """(layer, display name) of one profiled code object or builtin."""
    if isinstance(code, str):  # C function: cProfile gives its repr
        return "python.builtins", code
    filename = code.co_filename
    if filename.startswith(_REPRO_ROOT):
        module = filename[len(_REPRO_ROOT):].replace(os.sep, "/")
        layer = (MODULE_LAYERS.get(module)
                 or PACKAGE_LAYERS.get(module.split("/", 1)[0])
                 or "repro.other")
        return layer, f"{module}:{code.co_qualname}"
    if filename.startswith(_BENCH_ROOT):
        return "bench", f"bench/{filename[len(_BENCH_ROOT):]}:{code.co_qualname}"
    return "python.builtins", f"{os.path.basename(filename)}:{code.co_qualname}"


def fold(stats: List[Any], top: int = 20) -> Dict[str, Any]:
    """Fold ``cProfile.Profile.getstats()`` of one phase by layer."""
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    boundary_names = {f"{module}:{qualname}" for module, qualname in BOUNDARIES}
    boundary_calls = dict.fromkeys(sorted(boundary_names), 0)
    edges: Dict[Tuple[str, str], List[float]] = {}
    functions = []
    for entry in stats:
        layer, name = _locate(entry.code)
        row = layers[layer]
        row["self_s"] += entry.inlinetime
        row["calls"] += entry.callcount
        functions.append((entry.inlinetime, name, layer, entry.callcount,
                          entry.totaltime))
        if name in boundary_names:
            boundary_calls[name] += entry.callcount
        for sub in entry.calls or ():
            _callee_layer, callee = _locate(sub.code)
            if callee in boundary_names:
                edge = edges.setdefault((layer, callee), [0, 0.0])
                edge[0] += sub.callcount
                edge[1] += sub.totaltime
    functions.sort(reverse=True)
    return {
        "self_s": sum(row["self_s"] for row in layers.values()),
        "calls": sum(row["calls"] for row in layers.values()),
        "layers": layers,
        "boundary_calls": boundary_calls,
        "edges": [
            {"caller_layer": caller, "boundary": callee,
             "calls": calls, "inclusive_s": seconds}
            for (caller, callee), (calls, seconds) in sorted(edges.items())],
        "top_functions": [
            {"function": name, "layer": layer, "calls": calls,
             "self_s": self_s, "inclusive_s": inclusive}
            for self_s, name, layer, calls, inclusive in functions[:top]],
    }
