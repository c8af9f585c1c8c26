"""Argument parsing and command dispatch for ``python -m repro``.

Every config-taking command accepts ``--preset quick|calibrated|paper``
plus explicit overrides of the most common :class:`~repro.experiments.
common.ExperimentConfig` fields, builds the configuration once, runs the
corresponding harness and prints the same tables the benchmark suite
prints.  ``--json`` switches the output to machine-readable JSON (used
by the CLI tests and handy for piping into other tools).

The options those commands share are declared once, in the option
table :data:`_OPTIONS`: one loop registers its rows, and
:func:`_section` reads one config section's flags back as field
overrides (``--nodes`` sets ``ExperimentConfig.num_nodes``,
``--cold-restart`` sets ``HaConfig.warm_standby=False``).  A knob whose
section switch is off (``--corruption PRESET``, ``--provision PRESET``,
``--quarantine``, ``--ha``) is refused rather than silently ignored.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from typing import Any, Callable, Sequence

from repro.analysis import Table, format_fig6_table, format_fig7_table
from repro.cluster.engine import available_engines
from repro.core.policies import available_policies
from repro.errors import ConfigurationError, ReproError
from repro.experiments import (
    ExperimentConfig,
    ExperimentResult,
    Fig7Result,
    ResultCache,
    run_experiment,
    run_fig5,
    run_fig6,
    run_fig7,
)
from repro.experiments.ablations import policy_zoo
from repro.experiments.sweep import SweepCell, baseline_cell, run_sweep, validate_jobs
from repro.faults import CorruptionScenario, FaultScenario
from repro.ha import HaConfig
from repro.obs import ObsConfig
from repro.provision import ProvisionScenario
from repro.telemetry import IntegrityConfig
from repro.units import MICRO, fmt_power

__all__ = ["build_parser", "main", "metrics_dict"]

_PRESETS: dict[str, Callable[..., ExperimentConfig]] = {
    "quick": ExperimentConfig.quick,
    "calibrated": ExperimentConfig.calibrated,
    "paper": ExperimentConfig.paper,
}

_Row = tuple[str, str | None, str | None, dict[str, Any]]

#: The options every config-taking command shares, by help group
#: (``None``: the parser's own options).  A row is ``(flag, section,
#: field, add_argument kwargs)``; a row without a section is read from
#: the parsed arguments by name.
_OPTIONS: tuple[tuple[str | None, tuple[_Row, ...]], ...] = (
    ("experiment configuration", (
        ("--preset", None, None, dict(
            choices=sorted(_PRESETS), default="quick",
            help="base configuration (default: quick)")),
        ("--seed", None, None, dict(type=int, default=2012, help="root seed")),
        ("--nodes", "experiment", "num_nodes", dict(type=int, help="cluster size")),
        ("--candidate-size", "experiment", "candidate_size",
         dict(type=int, help="|A_candidate|")),
        ("--runtime-scale", "experiment", "runtime_scale",
         dict(type=float, help="job runtime compression")),
        ("--training", "experiment", "training_duration_s",
         dict(type=float, help="training window, seconds")),
        ("--duration", "experiment", "run_duration_s",
         dict(type=float, help="evaluation window, seconds")),
        ("--steady-green", "experiment", "steady_green_cycles",
         dict(type=int, help="T_g in control cycles")),
        ("--engine", "experiment", "engine", dict(
            choices=available_engines(),
            help="hot-path engine: 'vector' (SoA fast path, default) or "
            "'object' (paper-literal per-node reference; bit-identical)")),
    )),
    ("fault injection", (
        ("--faults", None, None, dict(
            default="none", metavar="PRESET",
            help="fault scenario preset (default: none; available: "
            + ", ".join(FaultScenario.preset_names()) + ")")),
        ("--telemetry-dropout", "faults", "telemetry_dropout", dict(
            type=float,
            help="per-node per-cycle telemetry sample loss probability")),
        ("--command-loss", "faults", "command_loss",
         dict(type=float, help="per-command DVFS loss probability")),
        ("--meter-outage", "faults", "meter_outage_rate", dict(
            type=float, help="per-cycle system-meter outage onset probability")),
        ("--no-faults", None, None, dict(
            action="store_true",
            help="assert the paper's fault-free setting; errors out if a "
            "fault or corruption scenario is also configured")),
    )),
    ("power delivery", (
        ("--provision", None, None, dict(
            metavar="PRESET",
            help="power-delivery scenario preset; 'none' attaches a healthy "
            "topology (available: "
            + ", ".join(ProvisionScenario.preset_names()) + ")")),
        ("--feed-loss-at", "provision", "feed_loss_at_cycle", dict(
            type=int, metavar="CYCLE",
            help="managed cycle at which a utility feed drops")),
        ("--feed-restore-after", "provision", "feed_restore_after_cycles", dict(
            type=int, metavar="CYCLES",
            help="cycles until lost feeds return (default: permanent)")),
        ("--cap-order-at", "provision", "cap_order_at_cycle", dict(
            type=int, metavar="CYCLE",
            help="managed cycle at which an operator cap order arrives")),
        ("--nodes-per-rack", "provision", "nodes_per_rack", dict(
            type=int, metavar="N", help="nodes per branch circuit (default: 8)")),
        ("--no-defense", "provision", "defend", dict(
            action="store_const", const=False,
            help="disable the emergency response (no renegotiation, no "
            "ladder) — the undefended comparison arm")),
        ("--no-branch-caps", "provision", "branch_caps", dict(
            action="store_const", const=False,
            help="disable per-branch capping while keeping the global defense")),
    )),
    ("telemetry integrity", (
        ("--corruption", None, None, dict(
            default="none", metavar="PRESET",
            help="sensor-corruption preset (default: none; available: "
            + ", ".join(CorruptionScenario.preset_names()) + ")")),
        ("--corruption-onset", "corruption", "onset_cycle", dict(
            type=int, metavar="CYCLE",
            help="control cycle at which corruption switches on (default: 0)")),
        ("--quarantine", None, None, dict(
            action="store_true",
            help="enable the telemetry-integrity defense "
            "(validation + trust/quarantine + meter cross-check)")),
        ("--trust-quarantine", "integrity", "quarantine_trust", dict(
            type=float, metavar="T",
            help="trust below which a node is quarantined (default: 0.30)")),
        ("--trust-release", "integrity", "release_trust", dict(
            type=float, metavar="T",
            help="trust a quarantined node must recover to (default: 0.90)")),
        ("--trust-recovery", "integrity", "trust_recovery", dict(
            type=float, metavar="T",
            help="trust restored per clean fresh sample (default: 0.02)")),
    )),
    ("controller high availability", (
        ("--ha", None, None, dict(
            action="store_true",
            help="enable the crash-recovery layer (journal + failover + fencing)")),
        ("--crash-at", "ha", "crash_at_cycles", dict(
            type=int, nargs="+", metavar="CYCLE",
            help="crash the controller at these 1-based control cycles")),
        ("--crash-rate", "faults", "controller_crash_rate", dict(
            type=float, help="per-cycle stochastic controller-crash probability")),
        ("--lease-timeout", "ha", "lease_timeout_cycles",
         dict(type=int, help="warm-standby lease timeout, control cycles")),
        ("--restart-cycles", "ha", "restart_cycles",
         dict(type=int, help="cold-restart downtime, control cycles")),
        ("--cold-restart", "ha", "warm_standby", dict(
            action="store_const", const=False,
            help="no warm standby: every crash costs a full restart")),
    )),
    ("observability", (
        ("--trace-out", None, None, dict(
            metavar="PATH",
            help="write the whole-run cycle trace as JSON lines to PATH")),
        ("--metrics-out", None, None, dict(
            metavar="PATH",
            help="write end-of-run metrics in Prometheus text format to PATH")),
        ("--flight-recorder", None, None, dict(
            type=int, metavar="N",
            help="arm a flight recorder holding the last N control cycles, "
            "dumped on fault onset, crash, failover, red-state entry "
            "and run end")),
        ("--flight-out", None, None, dict(
            metavar="PATH",
            help="flight-recorder dump path (default: flight.jsonl)")),
    )),
    ("parallel execution and caching", (
        ("--jobs", None, None, dict(
            metavar="N",
            help="worker processes for experiment grids (default: serial; "
            "results are bit-identical for every N)")),
        ("--cache-dir", None, None, dict(
            metavar="PATH",
            help="content-addressed result cache: unchanged cells are "
            "replayed from PATH instead of re-simulated")),
        ("--no-cache", None, None, dict(
            action="store_true",
            help="assert no result caching (conflicts with --cache-dir)")),
    )),
    (None, (
        ("--json", None, None,
         dict(action="store_true", help="emit JSON instead of tables")),
    )),
)

#: The switch a section's knobs need, as ``<flag> requires <switch>``
#: names it; the experiment and fault sections are always on.
_SWITCHES = {
    "corruption": "--corruption PRESET",
    "provision": "--provision PRESET",
    "integrity": "--quarantine",
    "ha": "--ha",
}


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    for title, rows in _OPTIONS:
        group = parser if title is None else parser.add_argument_group(title)
        for flag, _, _, kwargs in rows:
            group.add_argument(flag, **kwargs)


def _section(
    args: argparse.Namespace, section: str, armed: bool
) -> dict[str, Any]:
    """The flags given for ``section``, as ``{field: value}`` overrides.

    A knob given while its section is not ``armed`` would be silently
    ignored; refuse it, so a run the user believes is corrupted,
    stressed, defended or crashing actually is.
    """
    overrides: dict[str, Any] = {}
    for _, rows in _OPTIONS:
        for flag, row_section, field, _ in rows:
            value = getattr(args, flag[2:].replace("-", "_"))
            if row_section != section or value is None:
                continue
            if not armed:
                raise ConfigurationError(f"{flag} requires {_SWITCHES[section]}")
            # nargs="+" parses to a list; config fields hold tuples.
            overrides[field] = tuple(value) if isinstance(value, list) else value
    return overrides


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = _PRESETS[args.preset](seed=args.seed)
    overrides = _section(args, "experiment", True)
    # The scenario presets reject unknown names with the list of
    # available presets; main() turns that into a friendly exit.
    scenario = replace(
        FaultScenario.preset(args.faults), **_section(args, "faults", True)
    )
    corruption = CorruptionScenario.preset(args.corruption)
    corruption = replace(
        corruption, **_section(args, "corruption", corruption.enabled)
    )
    if args.no_faults:
        # --no-faults is the explicit "paper setting" assertion; a fault
        # or corruption scenario alongside it is a contradiction, not a
        # precedence question.
        if scenario.enabled:
            raise ConfigurationError(
                "--no-faults conflicts with the configured fault scenario "
                f"(--faults {args.faults!r} or a fault-rate "
                "override); drop one of the two"
            )
        if corruption.enabled:
            raise ConfigurationError(
                "--no-faults conflicts with --corruption "
                f"{args.corruption!r}; drop one of the two"
            )
    if scenario.enabled:
        overrides["faults"] = scenario
    if corruption.enabled:
        overrides["corruption"] = corruption
    # ``--provision none`` is meaningful: it attaches a healthy delivery
    # topology, proving the attachment itself changes nothing.
    attach = args.provision is not None
    provision = replace(
        ProvisionScenario.preset(args.provision if attach else "none"),
        **_section(args, "provision", attach),
    )
    if args.no_faults and provision.enabled:
        raise ConfigurationError(
            "--no-faults conflicts with --provision "
            f"{args.provision!r}; drop one of the two"
        )
    if attach:
        overrides["provision"] = provision
        overrides["attach_provision"] = True
    integrity = _section(args, "integrity", args.quarantine)
    if args.quarantine:
        overrides["integrity"] = IntegrityConfig(**integrity)
    ha = _section(args, "ha", args.ha)
    if args.ha:
        overrides["ha"] = HaConfig.warm(**ha)
    obs = _obs_from_args(args)
    if obs is not None:
        overrides["obs"] = obs
    return replace(config, **overrides) if overrides else config


def _obs_from_args(args: argparse.Namespace) -> ObsConfig | None:
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    flight_cycles = getattr(args, "flight_recorder", None)
    flight_out = getattr(args, "flight_out", None)
    if flight_out is not None and not flight_cycles:
        raise ConfigurationError("--flight-out requires --flight-recorder N")
    if trace_out is None and metrics_out is None and not flight_cycles:
        return None
    if flight_cycles and flight_out is None:
        flight_out = "flight.jsonl"
    return ObsConfig(
        trace=trace_out is not None,
        metrics=metrics_out is not None,
        flight_recorder_cycles=int(flight_cycles or 0),
        trace_path=trace_out,
        metrics_path=metrics_out,
        flight_path=flight_out,
    )


def _sweep_from_args(
    args: argparse.Namespace,
) -> tuple[int, ResultCache | None]:
    """``(jobs, cache)`` from the shared sweep options.

    ``--jobs`` is validated here (not by argparse) so 0, negatives and
    non-integers get the same friendly ``error:`` exit as an unknown
    preset instead of an argparse usage dump.
    """
    jobs = validate_jobs(getattr(args, "jobs", None))
    cache_dir = getattr(args, "cache_dir", None)
    if getattr(args, "no_cache", False) and cache_dir is not None:
        raise ConfigurationError(
            "--no-cache conflicts with --cache-dir "
            f"{cache_dir!r}; drop one of the two"
        )
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return jobs, cache


def metrics_dict(result: ExperimentResult) -> dict[str, Any]:
    """The ``--json`` payload for one run (shared with the CI gates)."""
    m = result.metrics
    return {
        "label": result.label,
        "training_peak_w": result.training_peak_w,
        "provision_w": result.provision_w,
        "p_low_w": result.p_low_w,
        "p_high_w": result.p_high_w,
        "performance": m.performance,
        "cplj": m.cplj,
        "finished_jobs": m.finished_jobs,
        "p_max_w": m.p_max_w,
        "avg_power_w": m.avg_power_w,
        "energy_j": m.energy_j,
        "overspend": m.overspend,
        "state_cycles": result.state_cycles,
        "entered_red": result.entered_red,
        "commands_sent": result.commands_sent,
        "fault_stats": (
            asdict(result.fault_stats) if result.fault_stats is not None else None
        ),
        "ha_stats": (
            asdict(result.ha_stats) if result.ha_stats is not None else None
        ),
        "provision_stats": (
            result.provision_stats.as_dict()
            if result.provision_stats is not None
            else None
        ),
        "observability": (
            {
                "cycles_traced": result.observability.tracer.cycles_traced,
                "flight_dumps": [
                    d.reason for d in result.observability.flight.dumps
                ],
                "metric_families": result.observability.metrics.names(),
            }
            if result.observability is not None
            else None
        ),
    }


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    policy = None if args.policy in (None, "none") else args.policy
    jobs, cache = _sweep_from_args(args)
    if cache is not None and config.obs.enabled:
        raise ConfigurationError(
            "--cache-dir cannot replay observability outputs; drop "
            "--trace-out/--metrics-out/--flight-recorder or the cache"
        )
    if jobs == 1 and cache is None:
        result = run_experiment(config, policy)
    else:
        cell = SweepCell(config, policy)
        result = run_sweep([cell], jobs=jobs, cache=cache).result_for(cell)
    if args.json:
        print(json.dumps(metrics_dict(result), indent=2))
        return 0
    m = result.metrics
    table = Table(["metric", "value"])
    table.add_row("policy", result.label)
    table.add_row("training peak", fmt_power(result.training_peak_w))
    table.add_row("provision P_th", fmt_power(result.provision_w))
    table.add_row("P_L / P_H", f"{fmt_power(result.p_low_w)} / {fmt_power(result.p_high_w)}")
    table.add_row("observed P_max", fmt_power(m.p_max_w))
    table.add_row("average power", fmt_power(m.avg_power_w))
    table.add_row("Performance(cap)", f"{m.performance:.4f}")
    table.add_row("CPLJ", f"{m.cplj}/{m.finished_jobs}")
    table.add_row("dPxT overspend", f"{m.overspend:.5f}")
    if result.state_cycles:
        table.add_row(
            "green/yellow/red",
            "/".join(str(result.state_cycles[k]) for k in ("green", "yellow", "red")),
        )
        table.add_row("DVFS commands", result.commands_sent)
    fs = result.fault_stats
    if fs is not None:
        table.add_row("telemetry samples dropped", fs.dropped_samples)
        table.add_row("DVFS commands lost/retried", f"{fs.commands_lost}/{fs.commands_retried}")
        table.add_row("meter outage cycles", fs.meter_outage_cycles)
        table.add_row("estimated-power cycles", fs.estimated_power_cycles)
        table.add_row("forced-red cycles", fs.forced_red_cycles)
        if fs.corrupted_samples or fs.corrupted_meter_readings:
            table.add_row(
                "corrupted samples (node/meter)",
                f"{fs.corrupted_samples}/{fs.corrupted_meter_readings}",
            )
        if fs.corrupt_samples_rejected or fs.quarantine_entries:
            table.add_row("corrupt samples rejected", fs.corrupt_samples_rejected)
            table.add_row(
                "quarantine entries / node-cycles",
                f"{fs.quarantine_entries}/{fs.quarantined_node_cycles}",
            )
        if fs.meter_distrusted_cycles:
            table.add_row("meter distrusted cycles", fs.meter_distrusted_cycles)
    hs = result.ha_stats
    if hs is not None:
        table.add_row("controller crashes", hs.crashes)
        table.add_row(
            "failovers (warm/cold)",
            f"{hs.failovers} ({hs.warm_failovers}/{hs.cold_restarts})",
        )
        table.add_row(
            "downtime",
            f"{hs.downtime_cycles} cycles "
            f"({hs.downtime_cycles * result.config.control_period_s:.0f} s)",
        )
        table.add_row("fenced commands", hs.fenced_commands)
        table.add_row("epoch conflicts", hs.epoch_conflicts)
        table.add_row(
            "journal records/compactions",
            f"{hs.journal_records}/{hs.journal_compactions}",
        )
    ps = result.provision_stats
    if ps is not None:
        table.add_row(
            "delivery capacity (min/design)",
            f"{fmt_power(ps.min_capacity_w)} / {fmt_power(ps.design_capacity_w)}",
        )
        table.add_row(
            "capacity events (feed/pdu/order)",
            f"{ps.feed_losses}/{ps.pdu_failures}/{ps.cap_orders}",
        )
        table.add_row("breaker trips", ps.breaker_trips)
        table.add_row(
            "capacity lost", f"{ps.capacity_lost_w_seconds:.0f} W*s"
        )
        table.add_row(
            "branch violation", f"{ps.branch_cap_violation_seconds:.1f} s"
        )
        if ps.envelope_renegotiations or ps.emergency_red_cycles:
            table.add_row(
                "renegotiations / emergency red",
                f"{ps.envelope_renegotiations}/{ps.emergency_red_cycles}",
            )
        if ps.branch_cap_interventions:
            table.add_row("branch-cap interventions", ps.branch_cap_interventions)
        if ps.jobs_suspended or ps.jobs_killed or ps.nodes_shed:
            table.add_row(
                "ladder (susp/resume/kill)",
                f"{ps.jobs_suspended}/{ps.jobs_resumed}/{ps.jobs_killed}",
            )
            table.add_row(
                "nodes shed/readmitted",
                f"{ps.nodes_shed}/{ps.nodes_readmitted}",
            )
    o = result.observability
    if o is not None:
        if o.tracing:
            table.add_row("cycles traced", o.tracer.cycles_traced)
        if o.flight.enabled:
            table.add_row(
                "flight dumps",
                ", ".join(d.reason for d in o.flight.dumps) or "none",
            )
        for path in (
            config.obs.trace_path,
            config.obs.metrics_path,
            config.obs.flight_path,
        ):
            if path is not None:
                table.add_row("wrote", path)
    print(table.render())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    jobs, cache = _sweep_from_args(args)
    return _print_fig7(
        args,
        run_fig7(config, policies=tuple(args.policies), jobs=jobs, cache=cache),
    )


def _print_fig7(args: argparse.Namespace, result: Fig7Result) -> int:
    """Print a baseline-plus-policies comparison as a table or JSON rows."""
    if args.json:
        rows = [
            {
                "policy": o.policy,
                "performance": o.performance,
                "cplj_fraction": o.cplj_fraction,
                "p_max_ratio": o.p_max_ratio,
                "overspend_reduction": o.overspend_reduction,
                "entered_red": o.entered_red,
            }
            for o in result.outcomes
        ]
        print(json.dumps(rows, indent=2))
        return 0
    print(format_fig7_table(result))
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    result = run_fig5(sizes=tuple(args.sizes), measure=not args.no_measure)
    if args.json:
        payload = {
            "sizes": result.sizes.tolist(),
            "modelled_cpu": result.modelled_cpu.tolist(),
            "measured_cycle_s": (
                result.measured_cycle_s.tolist()
                if result.measured_cycle_s is not None
                else None
            ),
        }
        print(json.dumps(payload, indent=2))
        return 0
    table = Table(["|A_candidate|", "modelled mgmt CPU", "measured cycle (us)"])
    for i, size in enumerate(result.sizes):
        measured = (
            f"{result.measured_cycle_s[i] / MICRO:.1f}"
            if result.measured_cycle_s is not None
            else "-"
        )
        table.add_row(int(size), f"{result.modelled_cpu[i]:.1%}", measured)
    print(table.render())
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    jobs, cache = _sweep_from_args(args)
    result = run_fig6(
        config,
        sizes=tuple(args.sizes),
        policies=tuple(args.policies),
        jobs=jobs,
        cache=cache,
    )
    if args.json:
        rows = [
            {
                "policy": p.policy,
                "size": p.size,
                "p_max_ratio": p.p_max_ratio,
                "overspend_ratio": p.overspend_ratio,
                "performance": p.performance,
            }
            for p in result.points
        ]
        print(json.dumps(rows, indent=2))
        return 0
    print(format_fig6_table(result))
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    args.policies = ["mpc", "hri"]
    return _cmd_compare(args)


def _cmd_zoo(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    jobs, cache = _sweep_from_args(args)
    return _print_fig7(args, policy_zoo(config, jobs=jobs, cache=cache))


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import render_run_report

    if args.json:
        raise ConfigurationError(
            "report writes Markdown, not JSON; use -o - to print it to stdout"
        )
    config = _config_from_args(args)
    if args.thermal:
        config = replace(config, track_thermal=True)
    jobs, cache = _sweep_from_args(args)
    base = baseline_cell(config)
    policy_cells = [SweepCell(config, p) for p in args.policies]
    report = run_sweep([base, *policy_cells], jobs=jobs, cache=cache)
    results = [report.result_for(base)]
    results.extend(report.result_for(cell) for cell in policy_cells)
    text = render_run_report(
        results, title=f"Power capping report (seed {config.seed})"
    )
    if args.output == "-":
        print(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    return 0


#: The scenario families ``list-presets`` enumerates, in display order.
_PRESET_FAMILIES: tuple[tuple[str, str, type], ...] = (
    ("faults", "--faults", FaultScenario),
    ("corruption", "--corruption", CorruptionScenario),
    ("provision", "--provision", ProvisionScenario),
)


def _preset_catalogue() -> list[dict[str, str]]:
    """Every scenario preset with its family, flag and one-line blurb."""
    rows: list[dict[str, str]] = []
    for family, flag, cls in _PRESET_FAMILIES:
        for name in cls.preset_names():
            factory = getattr(cls, name.replace("-", "_"))
            doc = (factory.__doc__ or "").strip()
            blurb = " ".join(doc.split("\n\n")[0].split()) if doc else ""
            rows.append(
                {
                    "family": family,
                    "flag": flag,
                    "name": name,
                    "description": blurb,
                }
            )
    return rows


def _cmd_list_presets(args: argparse.Namespace) -> int:
    rows = _preset_catalogue()
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    table = Table(["family", "preset", "description"])
    for row in rows:
        table.add_row(
            f"{row['family']} ({row['flag']})", row["name"], row["description"]
        )
    print(table.render())
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(available_policies()))
        return 0
    for name in available_policies():
        print(name)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The top-level ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Power Provision and Capping Architecture "
            "for Large Scale Systems' (IPPS 2012)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment protocol")
    p_run.add_argument(
        "--policy",
        default="mpc",
        help="selection policy name, or 'none' for the unmanaged baseline",
    )
    _add_config_arguments(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="baseline + several policies")
    p_cmp.add_argument("policies", nargs="+", help="policy names to compare")
    _add_config_arguments(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_f5 = sub.add_parser("fig5", help="Figure 5: manager scalability")
    p_f5.add_argument(
        "--sizes", type=int, nargs="+", default=[0, 8, 16, 32, 48, 64, 96, 128]
    )
    p_f5.add_argument(
        "--no-measure", action="store_true", help="skip wall-clock measurement"
    )
    p_f5.add_argument("--json", action="store_true")
    p_f5.set_defaults(func=_cmd_fig5)

    p_f6 = sub.add_parser("fig6", help="Figure 6: effect vs candidate size")
    p_f6.add_argument(
        "--sizes", type=int, nargs="+", default=[0, 8, 16, 32, 48, 64, 96, 128]
    )
    p_f6.add_argument("--policies", nargs="+", default=["mpc", "hri"])
    _add_config_arguments(p_f6)
    p_f6.set_defaults(func=_cmd_fig6)

    p_f7 = sub.add_parser("fig7", help="Figure 7: MPC vs HRI")
    _add_config_arguments(p_f7)
    p_f7.set_defaults(func=_cmd_fig7)

    p_zoo = sub.add_parser("zoo", help="all registered policies")
    _add_config_arguments(p_zoo)
    p_zoo.set_defaults(func=_cmd_zoo)

    p_rep = sub.add_parser("report", help="write a Markdown experiment report")
    p_rep.add_argument(
        "policies", nargs="*", default=["mpc", "hri"],
        help="policies to include beside the baseline (default: mpc hri)",
    )
    p_rep.add_argument(
        "-o", "--output", default="report.md",
        help="output path, or '-' for stdout (default: report.md)",
    )
    p_rep.add_argument(
        "--thermal", action="store_true", help="include the thermal section"
    )
    _add_config_arguments(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    p_pol = sub.add_parser("policies", help="list selection policies")
    p_pol.add_argument("--json", action="store_true")
    p_pol.set_defaults(func=_cmd_policies)

    p_lp = sub.add_parser(
        "list-presets",
        help="catalogue of fault, corruption and provision presets",
    )
    p_lp.add_argument("--json", action="store_true")
    p_lp.set_defaults(func=_cmd_list_presets)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
