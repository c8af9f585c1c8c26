"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.cli.main import _config_from_args


def _tiny(*extra):
    """Common overrides that make CLI runs finish in ~1 second."""
    return list(extra) + [
        "--runtime-scale", "0.02",
        "--training", "120",
        "--duration", "180",
        "--seed", "5",
    ]


def test_parser_requires_command(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_policies_command(capsys):
    assert main(["policies"]) == 0
    out = capsys.readouterr().out
    assert "mpc" in out and "hri" in out


def test_policies_json(capsys):
    assert main(["policies", "--json"]) == 0
    names = json.loads(capsys.readouterr().out)
    assert "mpc-c" in names


def test_run_uncapped(capsys):
    assert main(["run", "--policy", "none"] + _tiny()) == 0
    out = capsys.readouterr().out
    assert "uncapped" in out
    assert "Performance(cap)" in out


def test_run_mpc_table(capsys):
    assert main(["run", "--policy", "mpc"] + _tiny()) == 0
    out = capsys.readouterr().out
    assert "green/yellow/red" in out
    assert "DVFS commands" in out


def test_run_json(capsys):
    assert main(["run", "--policy", "mpc", "--json"] + _tiny()) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == "mpc"
    assert payload["finished_jobs"] > 0
    assert set(payload["state_cycles"]) == {"green", "yellow", "red"}


def test_compare_command(capsys):
    assert main(["compare", "mpc", "lpc"] + _tiny()) == 0
    out = capsys.readouterr().out
    assert "mpc" in out and "lpc" in out and "uncapped" in out


def test_compare_json(capsys):
    assert main(["compare", "mpc", "--json"] + _tiny()) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["policy"] == "mpc"
    assert 0 < rows[0]["performance"] <= 1.0


def test_fig5_command(capsys):
    assert main(["fig5", "--sizes", "0", "16", "64", "--no-measure"]) == 0
    out = capsys.readouterr().out
    assert "|A_candidate|" in out


def test_fig5_json(capsys):
    assert main(["fig5", "--sizes", "0", "8", "--no-measure", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sizes"] == [0, 8]
    assert payload["measured_cycle_s"] is None


def test_fig6_command(capsys):
    args = ["fig6", "--sizes", "0", "16", "--policies", "mpc"] + _tiny()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "dPxT (norm)" in out


def test_fig6_json(capsys):
    args = ["fig6", "--sizes", "0", "16", "--policies", "mpc", "--json"] + _tiny()
    assert main(args) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["size"] for r in rows} == {0, 16}


def test_unknown_policy_is_clean_error(capsys):
    code = main(["run", "--policy", "bogus"] + _tiny())
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_nodes_override(capsys):
    args = ["run", "--policy", "none", "--nodes", "32", "--json"] + _tiny()
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    # 32 nodes draw roughly a quarter of the 128-node cluster's power.
    assert payload["p_max_w"] < 15_000


def test_report_command_writes_file(tmp_path, capsys):
    out = tmp_path / "rep.md"
    args = ["report", "mpc", "-o", str(out)] + _tiny()
    assert main(args) == 0
    text = out.read_text()
    assert text.startswith("# Power capping report")
    assert "## Metrics" in text and "mpc" in text


def test_report_command_stdout(capsys):
    args = ["report", "mpc", "-o", "-"] + _tiny()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "## Normalised against `uncapped`" in out


def test_report_refuses_json(capsys):
    assert main(["report", "mpc", "--json"] + _tiny()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "-o -" in err


def test_zoo_json_prints_compare_rows(capsys):
    assert main(["zoo", "--json"] + _tiny("--nodes", "32")) == 0
    zoo = json.loads(capsys.readouterr().out)
    assert len(zoo) == 10
    assert main(["compare", zoo[-1]["policy"], "--json"] + _tiny("--nodes", "32")) == 0
    assert json.loads(capsys.readouterr().out) == zoo[-1:]


def test_report_command_thermal_section(tmp_path):
    out = tmp_path / "thermal.md"
    args = ["report", "mpc", "--thermal", "-o", str(out)] + _tiny()
    assert main(args) == 0
    assert "## Thermal / reliability" in out.read_text()


def test_run_with_fault_preset_json(capsys):
    args = ["run", "--policy", "mpc", "--faults", "light", "--json"] + _tiny()
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    stats = payload["fault_stats"]
    assert stats is not None
    assert stats["dropped_samples"] > 0
    assert stats["commands_abandoned"] >= 0


def test_run_without_faults_reports_none(capsys):
    args = ["run", "--policy", "mpc", "--json"] + _tiny()
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fault_stats"] is None


def test_run_with_quarantine_alone_reports_integrity_counters(capsys):
    """The integrity layer's counters reach ``fault_stats`` without a
    fault injector; the injector's own counters read 0."""
    args = ["run", "--policy", "mpc", "--json", "--quarantine"] + _tiny()
    assert main(args) == 0
    stats = json.loads(capsys.readouterr().out)["fault_stats"]
    assert stats is not None
    assert "meter_distrusted_cycles" in stats
    assert stats["meter_outages"] == stats["node_crashes"] == 0
    assert stats["commands_lost"] == 0


def test_run_fault_override_flags(capsys):
    args = [
        "run", "--policy", "mpc", "--json",
        "--faults", "none", "--telemetry-dropout", "0.2",
    ] + _tiny()
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fault_stats"]["dropped_samples"] > 0


def test_run_fault_table_lists_fault_rows(capsys):
    args = ["run", "--policy", "mpc", "--faults", "heavy"] + _tiny()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "telemetry samples dropped" in out
    assert "forced-red cycles" in out


# ----------------------------------------------------------------------
# Telemetry corruption / integrity flags
# ----------------------------------------------------------------------
def test_run_with_corruption_preset_json(capsys):
    args = [
        "run", "--policy", "mpc", "--json",
        "--corruption", "gain-error",
    ] + _tiny()
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    stats = payload["fault_stats"]
    assert stats is not None
    assert stats["corrupted_samples"] > 0


def test_run_corruption_with_quarantine_table(capsys):
    args = [
        "run", "--policy", "mpc",
        "--corruption", "garbage", "--quarantine",
    ] + _tiny()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "corrupted samples" in out
    assert "corrupt samples rejected" in out


def test_unknown_corruption_preset_is_clean_error(capsys):
    code = main(["run", "--policy", "mpc", "--corruption", "stuckat"] + _tiny())
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "stuck-at" in err  # the catalogue is listed for the typo


def test_unknown_faults_preset_is_clean_error(capsys):
    code = main(["run", "--policy", "mpc", "--faults", "heavvy"] + _tiny())
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "heavy" in err


def test_no_faults_conflicts_with_faults_preset(capsys):
    code = main(
        ["run", "--policy", "mpc", "--faults", "light", "--no-faults"] + _tiny()
    )
    assert code == 2
    assert "--no-faults" in capsys.readouterr().err


def test_no_faults_conflicts_with_corruption(capsys):
    code = main(
        ["run", "--policy", "mpc", "--corruption", "drift", "--no-faults"]
        + _tiny()
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--no-faults" in err and "drift" in err


def test_trust_flags_require_quarantine(capsys):
    code = main(
        ["run", "--policy", "mpc", "--trust-release", "0.8"] + _tiny()
    )
    assert code == 2
    assert "--quarantine" in capsys.readouterr().err


#: Every knob that only applies behind its section's switch.
SWITCHED_KNOBS = [
    ("--corruption-onset 10", "--corruption PRESET"),
    ("--feed-loss-at 5", "--provision PRESET"),
    ("--feed-restore-after 10", "--provision PRESET"),
    ("--cap-order-at 7", "--provision PRESET"),
    ("--nodes-per-rack 4", "--provision PRESET"),
    ("--no-defense", "--provision PRESET"),
    ("--no-branch-caps", "--provision PRESET"),
    ("--trust-quarantine 0.2", "--quarantine"),
    ("--trust-release 0.8", "--quarantine"),
    ("--trust-recovery 0.05", "--quarantine"),
    ("--crash-at 5", "--ha"),
    ("--lease-timeout 0", "--ha"),
    ("--restart-cycles 0", "--ha"),
    ("--cold-restart", "--ha"),
]


@pytest.mark.parametrize(
    ("knob", "switch"), SWITCHED_KNOBS, ids=[k for k, _ in SWITCHED_KNOBS]
)
def test_switched_knob_requires_its_switch(capsys, knob, switch):
    # Zero-valued knobs included: each would otherwise be silently ignored.
    assert main(["run", "--policy", "mpc", *knob.split()] + _tiny()) == 2
    assert f"{knob.split()[0]} requires {switch}" in capsys.readouterr().err


#: Every field-override flag: ``(argv, config section, field, value)``,
#: with a value that differs from the field's default.
OVERRIDE_FLAGS = [
    ("--nodes 32", None, "num_nodes", 32),
    ("--candidate-size 16", None, "candidate_size", 16),
    ("--runtime-scale 0.5", None, "runtime_scale", 0.5),
    ("--training 100", None, "training_duration_s", 100.0),
    ("--duration 200", None, "run_duration_s", 200.0),
    ("--steady-green 5", None, "steady_green_cycles", 5),
    ("--engine object", None, "engine", "object"),
    ("--telemetry-dropout 0.2", "faults", "telemetry_dropout", 0.2),
    ("--command-loss 0.1", "faults", "command_loss", 0.1),
    ("--meter-outage 0.05", "faults", "meter_outage_rate", 0.05),
    ("--ha --crash-rate 0.01", "faults", "controller_crash_rate", 0.01),
    ("--corruption drift --corruption-onset 10", "corruption", "onset_cycle", 10),
    ("--provision none --feed-loss-at 5", "provision", "feed_loss_at_cycle", 5),
    ("--provision none --feed-restore-after 10",
     "provision", "feed_restore_after_cycles", 10),
    ("--provision none --cap-order-at 7", "provision", "cap_order_at_cycle", 7),
    ("--provision none --nodes-per-rack 4", "provision", "nodes_per_rack", 4),
    ("--provision none --no-defense", "provision", "defend", False),
    ("--provision none --no-branch-caps", "provision", "branch_caps", False),
    ("--quarantine --trust-quarantine 0.2", "integrity", "quarantine_trust", 0.2),
    ("--quarantine --trust-release 0.8", "integrity", "release_trust", 0.8),
    ("--quarantine --trust-recovery 0.05", "integrity", "trust_recovery", 0.05),
    ("--ha --crash-at 5 7", "ha", "crash_at_cycles", (5, 7)),
    ("--ha --lease-timeout 2", "ha", "lease_timeout_cycles", 2),
    ("--ha --restart-cycles 10", "ha", "restart_cycles", 10),
    ("--ha --cold-restart", "ha", "warm_standby", False),
]


@pytest.mark.parametrize(
    ("argv", "section", "field", "value"),
    OVERRIDE_FLAGS,
    ids=[argv for argv, *_ in OVERRIDE_FLAGS],
)
def test_override_flag_sets_its_field(argv, section, field, value):
    config = _config_from_args(build_parser().parse_args(["run", *argv.split()]))
    target = config if section is None else getattr(config, section)
    assert getattr(target, field) == value


def test_corruption_onset_requires_corruption(capsys):
    code = main(
        ["run", "--policy", "mpc", "--corruption-onset", "10"] + _tiny()
    )
    assert code == 2
    assert "--corruption" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Power delivery (--provision) and the preset catalogue
# ----------------------------------------------------------------------
def test_list_presets_table(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for family in ("faults", "corruption", "provision"):
        assert family in out
    assert "feed-loss" in out
    assert "grid-storm" in out


def test_list_presets_json(capsys):
    assert main(["list-presets", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    families = {row["family"] for row in rows}
    assert families == {"faults", "corruption", "provision"}
    provision = {r["name"] for r in rows if r["family"] == "provision"}
    assert {"none", "feed-loss", "pdu-failure"} <= provision
    assert all(row["description"] for row in rows)


def test_run_with_provision_feed_loss(capsys):
    args = ["run", "--policy", "bfp", "--provision", "feed-loss", "--json"]
    assert main(args + _tiny()) == 0
    payload = json.loads(capsys.readouterr().out)
    stats = payload["provision_stats"]
    assert stats["feed_losses"] >= 1
    assert stats["breaker_trips"] == 0
    assert stats["min_capacity_w"] < stats["design_capacity_w"]


def test_run_with_provision_table_section(capsys):
    args = ["run", "--policy", "bfp", "--provision", "feed-loss"]
    assert main(args + _tiny()) == 0
    out = capsys.readouterr().out
    assert "delivery capacity" in out
    assert "breaker trips" in out


def test_provision_none_attaches_healthy_topology(capsys):
    args = ["run", "--policy", "bfp", "--provision", "none", "--json"]
    assert main(args + _tiny()) == 0
    payload = json.loads(capsys.readouterr().out)
    stats = payload["provision_stats"]
    assert stats["feed_losses"] == 0
    assert stats["min_capacity_w"] == stats["design_capacity_w"]


def test_no_provision_flag_reports_no_stats(capsys):
    assert main(["run", "--policy", "bfp", "--json"] + _tiny()) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["provision_stats"] is None


def test_unknown_provision_preset_points_at_catalogue(capsys):
    code = main(
        ["run", "--policy", "bfp", "--provision", "feedloss"] + _tiny()
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "feed-loss" in err
    assert "list-presets" in err


def test_unknown_faults_preset_points_at_catalogue(capsys):
    code = main(["run", "--policy", "mpc", "--faults", "heavvy"] + _tiny())
    assert code == 2
    assert "list-presets" in capsys.readouterr().err


def test_provision_knobs_require_preset(capsys):
    code = main(["run", "--policy", "bfp", "--feed-loss-at", "5"] + _tiny())
    assert code == 2
    assert "--provision" in capsys.readouterr().err


def test_no_faults_conflicts_with_provision(capsys):
    code = main(
        ["run", "--policy", "bfp", "--provision", "feed-loss", "--no-faults"]
        + _tiny()
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--no-faults" in err and "feed-loss" in err


# ----------------------------------------------------------------------
# Parallel execution and result caching
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", ["0", "-3", "abc", "2.5"])
def test_jobs_rejects_non_positive_non_int(capsys, bad):
    code = main(["compare", "mpc", "--jobs", bad] + _tiny())
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--jobs" in err and "positive integer" in err


def test_jobs_unset_defaults_serial(capsys):
    # No --jobs at all: identical behaviour to the pre-sweep CLI.
    assert main(["compare", "mpc", "--json"] + _tiny("--nodes", "32")) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["policy"] == "mpc"


def test_no_cache_conflicts_with_cache_dir(capsys, tmp_path):
    code = main(
        ["compare", "mpc", "--no-cache", "--cache-dir", str(tmp_path)]
        + _tiny()
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--no-cache" in err and "--cache-dir" in err


def test_cache_dir_warm_rerun_is_byte_identical(capsys, tmp_path):
    args = (
        ["compare", "mpc", "--json", "--cache-dir", str(tmp_path)]
        + _tiny("--nodes", "32")
    )
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert warm == cold
    assert any(tmp_path.iterdir())


def test_run_jobs_and_cache(capsys, tmp_path):
    args = (
        ["run", "--policy", "mpc", "--json", "--jobs", "2",
         "--cache-dir", str(tmp_path)]
        + _tiny("--nodes", "32")
    )
    assert main(args) == 0
    cold = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm == cold


def test_cache_dir_refuses_observability_runs(capsys, tmp_path):
    code = main(
        ["run", "--policy", "mpc", "--cache-dir", str(tmp_path),
         "--trace-out", str(tmp_path / "t.jsonl")]
        + _tiny()
    )
    assert code == 2
    assert "observability" in capsys.readouterr().err
