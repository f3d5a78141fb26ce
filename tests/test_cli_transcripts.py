"""Byte-for-byte pins of what the CLI prints.

Each case runs ``repro.cli.main`` in-process on a small configuration and
compares its stdout with a transcript in ``tests/data/cli/``. Covered:
every CLI invocation of the ``cli-smoke`` and ``chaos-smoke`` CI jobs,
and each subcommand's other flag paths (modes, baselines, rebalancer,
autoscaler, tracing, patch-cache capacity). Only wall-clock readings are
masked — serve's events per second and sweep's ``wall (s)`` column —
and the temporary directory the trace cases write into.

A transcript changes only with an intended change of output; regenerate
them with ``PYTHONPATH=src python tests/test_cli_transcripts.py``.
"""

import contextlib
import io
import pathlib
import re
import sys
import tempfile

import pytest

import repro.obs.trace
from repro.cli import main

pytestmark = pytest.mark.guard

DATA = pathlib.Path(__file__).parent / "data" / "cli"

#: stands for the per-test temporary directory, in arguments and output
TMP = "<tmp>"

#: transcript name -> argument line
CASES = {
    # cli-smoke and chaos-smoke, as CI runs them
    "rebalance": "rebalance --workers 8 --iterations 30",
    "serve": "serve --workers 8 --jobs 6 --seed 0",
    "autoscale": "autoscale --workers 8 --iterations 30 --step-iteration 10",
    "lr_centralized": "lr --workers 8 --iterations 12 --mode centralized",
    "lr_decentralized": "lr --workers 8 --iterations 12 --mode decentralized",
    "lr_sharded": "lr --workers 8 --iterations 12 --mode sharded --shards 3",
    "lr_spark": "lr --workers 8 --iterations 6 --system spark",
    "lr_no_templates": "lr --workers 8 --iterations 6 --no-templates",
    "lr_naiad": "lr --workers 8 --iterations 6 --system naiad",
    "lr_chaos": "lr --workers 8 --iterations 6 --chaos-profile lossy "
                "--chaos-seed 7",
    # the scenario subcommands' other paths
    "rebalance_off": "rebalance --workers 8 --iterations 30 --off",
    "autoscale_down": "autoscale --workers 8 --iterations 30 "
                      "--step-iteration 10 --step 0.5",
    "autoscale_sharded": "autoscale --workers 8 --iterations 30 "
                         "--step-iteration 10 --mode sharded --shards 2",
    "serve_decentralized": "serve --workers 8 --jobs 6 "
                           "--mode decentralized",
    # the app subcommands
    "lr_rebalance": "lr --workers 8 --iterations 12 --rebalance",
    "lr_autoscale": "lr --workers 8 --iterations 12 --autoscale",
    "lr_trace": f"lr --workers 8 --iterations 6 --trace "
                f"--trace-out {TMP}/trace_lr.json",
    "kmeans": "kmeans --workers 8 --iterations 6",
    "kmeans_real": "kmeans --workers 2 --iterations 5 --data-gb 2 --real",
    "water": "water --workers 4 --scale 0.01 --frame-duration 0.003",
    "water_spark": "water --workers 4 --scale 0.01 --frame-duration 0.003 "
                   "--system spark",
    "regression": "regression --workers 3",
    "regression_naiad": "regression --workers 3 --system naiad",
    "rotation": "rotation --workers 4 --iterations 10",
    "rotation_no_cache": "rotation --workers 4 --iterations 10 "
                         "--patch-cache-cap 0",
    "sweep_lr": "sweep --workload lr --workers 4 --iterations 6 --seeds 2",
    "sweep_kmeans": "sweep --workload kmeans --workers 4 --iterations 6 "
                    "--seeds 2",
    # repro trace, one case per workload
    "trace_fig07": f"trace fig07 --workers 8 --iterations 12 "
                   f"--out {TMP}/trace_fig07.json",
    "trace_fig08": f"trace fig08 --out {TMP}/trace_fig08.json",
    "trace_rotation": f"trace rotation --out {TMP}/trace_rotation.json",
}


def transcript(line: str, tmp: pathlib.Path) -> str:
    """What ``repro <line>`` prints, with wall-clock readings masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(line.replace(TMP, str(tmp)).split()) == 0
    text = out.getvalue().replace(str(tmp), TMP)
    text = re.sub(r"\([\d,]+ events/s\)", "(<rate> events/s)", text)
    # a sweep row is "seed | iteration (ms) | wall (s)"
    return re.sub(r"(?m)^(\d+ +\| [\d.]+ +\| )[\d.]+ *$", r"\1<wall>", text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_prints_its_transcript(name, tmp_path, monkeypatch):
    # a traced run prints more; only --trace may switch tracing on here
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.setattr(repro.obs.trace, "TRACE_ENABLED", False)
    monkeypatch.chdir(tmp_path)
    expected = (DATA / f"{name}.txt").read_text()
    assert transcript(CASES[name], tmp_path) == expected


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    names = sys.argv[1:] or sorted(CASES)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            (DATA / f"{name}.txt").write_text(
                transcript(CASES[name], pathlib.Path(tmp)))
            print(f"wrote {name}.txt")
