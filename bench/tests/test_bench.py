"""Checks of the benchmark itself, at ``--quick`` scale.

Run with ``python -m pytest bench/tests`` (not part of tier-1).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics as M  # noqa: E402
import run as bench_run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def results_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench") / "quick.json")


@pytest.fixture(scope="module")
def untraced(results_file):
    return {w: last_json(bench("--quick", "--workload", w, "--trace", "0",
                               "--reps", "2", "--out", results_file))
            for w in bench_run.WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {w: last_json(bench("--quick", "--workload", w, "--trace", "1"))
            for w in bench_run.WORKLOADS}


def test_benchmark_json_matches_the_declarations():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert sorted(doc) == ["command", "end_to_end", "paths", "per_layer",
                           "run_seconds", "workloads"]
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert doc["run_seconds"] == bench_run.DEFAULT_SECONDS
    assert [w["name"] for w in doc["workloads"]] == list(bench_run.WORKLOADS)
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in M.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in M.PER_LAYER]
    assert len(doc["per_layer"]) <= 128 and len(M.BY_NAME) == len(
        M.END_TO_END) + len(M.PER_LAYER)
    assert all(NAME.match(name) for name in M.BY_NAME)
    bounds = {m.name: m.bound for m in M.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_workload_reports_every_end_to_end_metric(untraced):
    for workload, result in untraced.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert list(result["metrics"]) == [m.name for m in M.END_TO_END]
        for name, row in result["metrics"].items():
            assert row["unit"] == M.BY_NAME[name].unit
            assert row["value"] > 0, (workload, name)


def test_virtual_metrics_repeat_exactly(untraced):
    for workload, first in untraced.items():
        again = last_json(bench("--quick", "--workload", workload,
                                "--trace", "0", "--reps", "1"))
        for m in M.END_TO_END:
            if m.clock == "virtual":
                assert (again["metrics"][m.name]
                        == first["metrics"][m.name]), (workload, m.name)


def test_every_workload_reports_every_per_layer_metric(traced):
    for workload, result in traced.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert list(result["metrics"]) == [m.name for m in M.PER_LAYER]


def test_layers_account_for_the_profile_and_the_critical_path(traced):
    for workload, result in traced.items():
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["bench.profile_coverage_pct"] >= 95.0, workload
        assert values["virt.critical_path_coverage_pct"] >= 99.0, workload
        with open(os.path.join(
                BENCH, "out", f"trace_{workload}_quick.json")) as fh:
            ledger = json.load(fh)
        for phase in ("setup", "steady"):
            fold = ledger["passes"]["profile"]["profile"][phase]
            assert sum(row["self_s"] for row in fold["layers"].values()) \
                == pytest.approx(fold["self_s"])
            assert len(fold["top_functions"]) == 20


def test_each_mechanism_is_bypassed_off_its_workload(traced):
    for workload, result in traced.items():
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert (values["core.edits.applied"] > 0) == (workload == "lr_migrate")
        assert (values["nimbus.shard.handled_per_task"] > 0) == (
            workload == "lr_scaleout")
        assert (values["nimbus.multijob.admitted"] > 0) == (
            workload == "serve_mix")
        assert values["nimbus.multijob.rejected"] == 0


def test_compare_passes_a_run_against_itself_and_flags_a_regression(
        untraced, results_file, tmp_path):
    same = bench("--compare", results_file, results_file)
    assert same.returncode == 0 and "0 regressed" in same.stdout
    with open(results_file) as fh:
        doc = json.load(fh)
    row = doc["workloads"]["lr_steady"]["end_to_end"]["metrics"]
    row["virt_steady_s"]["value"] *= 1.01  # 1 % on a same-seed virtual metric
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(doc))
    flagged = bench("--compare", results_file, str(worse))
    assert flagged.returncode == 1
    assert re.search(r"virt_steady_s .* regressed", flagged.stdout)


def test_deviating_outputs_are_reported():
    rep = {"jobs": {"attempted": 2, "finished": 1}, "digest": "a",
           "tasks_executed": 5, "events_run": 7,
           "virt": {"virt_steady_s": 1.0, "virt_tasks_per_s": 1.0}}
    pins = {"digest": "b", "tasks_executed": 5,
            "seeds": {"0": {"events_run": 7, "virt_steady_s": 1.1}}}
    found = bench_run.deviations(rep, pins, seed=0)
    assert len(found) == 3  # unfinished job, digest, virt_steady_s
    assert bench_run.deviations(rep, None, seed=0)[-1].startswith(
        "expected.json has no entry")


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "lr_steady", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
