"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_has_all_workloads():
    parser = build_parser()
    for workload in ("lr", "kmeans", "water", "regression"):
        args = parser.parse_args([workload, "--workers", "2"])
        assert args.workers == 2
        assert callable(args.fn)


def test_lr_runs_end_to_end(capsys):
    assert main(["lr", "--workers", "4", "--iterations", "6",
                 "--data-gb", "4"]) == 0
    out = capsys.readouterr().out
    assert "logistic regression" in out
    assert "steady-state iteration time" in out
    assert "auto_validations" in out


def test_lr_spark_system(capsys):
    assert main(["lr", "--workers", "4", "--iterations", "6",
                 "--data-gb", "4", "--system", "spark"]) == 0
    out = capsys.readouterr().out
    assert "system=spark" in out
    assert "template_instantiations" not in out  # Spark never instantiates


def test_lr_without_templates(capsys):
    assert main(["lr", "--workers", "4", "--iterations", "6",
                 "--data-gb", "4", "--no-templates"]) == 0
    out = capsys.readouterr().out
    assert "template_instantiations" not in out


def test_kmeans_real_compute(capsys):
    assert main(["kmeans", "--workers", "2", "--iterations", "5",
                 "--data-gb", "2", "--real"]) == 0
    assert "k-means" in capsys.readouterr().out


def test_water_prints_frames(capsys):
    assert main(["water", "--workers", "4", "--scale", "0.01",
                 "--frame-duration", "0.003"]) == 0
    out = capsys.readouterr().out
    assert "frame 0:" in out
    assert "variables" in out


def test_regression_reports_error(capsys):
    assert main(["regression", "--workers", "3"]) == 0
    assert "nested regression" in capsys.readouterr().out


def test_rotation_exercises_patch_cache(capsys):
    assert main(["rotation", "--workers", "4", "--iterations", "10"]) == 0
    out = capsys.readouterr().out
    assert "patch rotation" in out
    assert "patch_cache_hits" in out


def test_rotation_cache_cap_zero_forces_recompute(capsys):
    assert main(["rotation", "--workers", "4", "--iterations", "10",
                 "--patch-cache-cap", "0"]) == 0
    out = capsys.readouterr().out
    assert "patch cache cap 0" in out
    assert "patch_cache_hits" not in out  # every round recomputes


def test_rotation_requires_nimbus():
    with pytest.raises(SystemExit):
        main(["rotation", "--workers", "4", "--system", "spark"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_lr_decentralized_mode_runs(capsys):
    assert main(["lr", "--workers", "4", "--iterations", "8",
                 "--mode", "decentralized"]) == 0
    out = capsys.readouterr().out
    assert "logistic regression" in out
    assert "steady-state iteration time" in out
    # the scheduling-mode table's rows come from this counter block
    assert "controller.steady_messages_per_task" in out


def test_decentralized_mode_requires_nimbus():
    with pytest.raises(SystemExit, match="nimbus"):
        main(["lr", "--workers", "4", "--system", "spark",
              "--mode", "decentralized"])


def test_serve_accepts_mode(capsys):
    assert main(["serve", "--workers", "4", "--jobs", "2",
                 "--iterations", "4", "--mode", "decentralized"]) == 0
    assert "job_arrival" in capsys.readouterr().out


def test_autoscale_subcommand_reports_reconciliation(capsys):
    assert main(["autoscale", "--workers", "8", "--iterations", "30",
                 "--step-iteration", "10"]) == 0
    out = capsys.readouterr().out
    assert "demand-step reconciliation" in out
    assert "time to stable" in out
    assert "zero loss" in out


def test_lr_accepts_autoscale_flag(capsys):
    assert main(["lr", "--workers", "4", "--iterations", "6",
                 "--autoscale"]) == 0
    assert "logistic regression" in capsys.readouterr().out


def test_autoscale_flag_requires_nimbus():
    with pytest.raises(SystemExit, match="nimbus"):
        main(["lr", "--workers", "4", "--system", "spark", "--autoscale"])


@pytest.mark.parametrize("argv, named", [
    (["sweep", "--seeds", "0"], "--seeds"),
    (["lr", "--workers", "0"], "--workers"),
    (["trace", "fig07", "--workers", "0"], "--workers"),
    (["serve", "--jobs", "0"], "--jobs"),
    (["serve", "--max-concurrent", "0"], "--max-concurrent"),
    (["serve", "--dispatch-cap", "0"], "--dispatch-cap"),
    (["lr", "--mode", "sharded", "--shards", "0"], "--shards"),
    (["rebalance", "--iterations", "10"], "fault_iteration 12"),
    (["rebalance", "--fault-iteration", "4"], "fault_iteration 4"),
    (["autoscale", "--iterations", "10"], "step_iteration 12"),
    (["autoscale", "--step-iteration", "0"], "step_iteration 0"),
    (["rotation", "--patch-cache-cap", "-1"], "--patch-cache-cap"),
    (["sweep", "--iterations", "1"], "--iterations"),
    (["sweep", "--iterations", "2"], "--iterations"),
    (["lr", "--workers", "4", "--iterations", "4", "--autoscale",
      "--autoscale-interval", "0"], "--autoscale-interval"),
    (["lr", "--workers", "4", "--iterations", "4", "--autoscale",
      "--autoscale-interval", "-0.5"], "--autoscale-interval"),
    (["lr", "--workers", "4", "--iterations", "4", "--autoscale",
      "--autoscale-cold-start", "-1"], "--autoscale-cold-start"),
    (["lr", "--workers", "4", "--iterations", "4", "--data-gb", "-1"],
     "--data-gb"),
    (["autoscale", "--step", "-1"], "--step"),
    (["autoscale", "--interval", "0"], "--interval"),
    (["autoscale", "--cold-start", "-1"], "--cold-start"),
    (["rebalance", "--scale", "-2"], "--scale"),
    (["water", "--scale", "-1"], "--scale"),
    (["serve", "--mean-interarrival", "0"], "--mean-interarrival"),
])
def test_counts_and_event_positions_are_checked_as_usage_errors(
        argv, named, capsys):
    """A count of zero, a period that cannot advance time, a negative
    delay or scale, or a scripted event with no room to measure around
    it, is a usage error: exit status 2 and a message naming the
    option, not a traceback, a hang or a silently ignored value."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
