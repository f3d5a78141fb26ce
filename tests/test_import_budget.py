"""numpy stays off the run path (EXPERIMENTS.md "Resident footprint").

Every benchmark workload runs the paper's "-opt" method: task bodies are
virtual-time spin waits, so nothing computes with numpy. The package
imports it only inside the functions that do — the data generators, the
real-compute task bodies of LR and k-means, and ``RegressionApp`` — which
keeps numpy's import out of every default run: about 12 MB of resident
memory and 0.13 s of start-up under Python 3.11 on a two-core x86-64 VM.
"""

import ast
import os
import pathlib
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).parent

#: a child interpreter imports the package's entry points, runs the
#: given CLI invocations, and prints whether numpy got loaded
PROBE = """
import contextlib, io, sys
import repro, repro.analysis, repro.apps, repro.apps.scenarios, repro.cli
import repro.nimbus
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {runs!r}:
        repro.cli.main(argv)
print("numpy" in sys.modules)
"""

DEFAULT_RUNS = [
    ["lr", "--workers", "4", "--iterations", "4"],
    ["kmeans", "--workers", "4", "--iterations", "4"],
    ["rotation", "--workers", "4", "--iterations", "4"],
    ["water", "--workers", "4", "--scale", "0.01"],
]


def _loads_numpy(runs) -> bool:
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(runs=runs)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return out.stdout.strip() == "True"


def _eager_numpy_imports(nodes):
    """Line numbers of the numpy imports among ``nodes`` that run when
    the module loads: outside every function body and every
    ``if TYPE_CHECKING:`` block."""
    found = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (isinstance(node, ast.If)
                and ast.unparse(node.test) == "TYPE_CHECKING"):
            found += _eager_numpy_imports(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            found += _eager_numpy_imports(ast.iter_child_nodes(node))
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            found.append(node.lineno)
    return found


def test_no_module_imports_numpy_at_load_time():
    eager = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = _eager_numpy_imports(ast.parse(path.read_text()).body)
        if lines:
            eager[path.relative_to(SRC).as_posix()] = lines
    assert eager == {}


def test_default_runs_never_load_numpy():
    assert not _loads_numpy(DEFAULT_RUNS)


def test_real_compute_run_loads_numpy():
    assert _loads_numpy([["lr", "--workers", "2", "--iterations", "3",
                          "--real", "--data-gb", "1"]])
