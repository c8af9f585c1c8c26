"""Markdown experiment reports.

:func:`render_run_report` turns one or more
:class:`~repro.experiments.common.ExperimentResult` objects into a
self-contained Markdown document: configuration, per-run metric tables,
baseline-normalised comparisons, an ASCII power-trajectory chart and a
per-application performance breakdown.  The CLI's ``report`` command and
the examples write these files so experiment outputs are reviewable
artifacts rather than scrollback.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING, Sequence

from repro.analysis.figures import ascii_chart
from repro.analysis.tables import Table
from repro.errors import MetricError
from repro.metrics.performance import per_application_performance
from repro.metrics.summary import compare_runs
from repro.units import fmt_duration, fmt_energy, fmt_power

if TYPE_CHECKING:
    from repro.experiments.common import ExperimentResult

__all__ = ["render_run_report"]


def _config_section(out: io.StringIO, result: ExperimentResult) -> None:
    config = result.config
    out.write("## Configuration\n\n")
    table = Table(["parameter", "value"])
    table.add_row("cluster", f"{config.num_nodes} Tianhe-1A nodes")
    table.add_row("seed", config.seed)
    table.add_row("control period", f"{config.control_period_s:g} s")
    table.add_row("runtime scale", f"{config.runtime_scale:g}")
    table.add_row("training window", fmt_duration(config.training_duration_s))
    table.add_row("evaluation window", fmt_duration(config.run_duration_s))
    table.add_row("T_g (steady green)", f"{config.steady_green_cycles} cycles")
    table.add_row(
        "margins (P_H/P_L)",
        f"{config.margin_high:.0%} / {config.margin_low:.0%} below peak",
    )
    table.add_row("provision fraction", f"{config.provision_fraction:.0%} of peak")
    table.add_row("scheduler", config.scheduler)
    candidates = (
        "all controllable"
        if config.candidate_size is None
        else str(config.candidate_size)
    )
    table.add_row("|A_candidate|", candidates)
    out.write("```\n" + table.render() + "\n```\n\n")
    out.write(
        f"Learned thresholds: P_L = {fmt_power(result.p_low_w)}, "
        f"P_H = {fmt_power(result.p_high_w)}; training peak "
        f"{fmt_power(result.training_peak_w)}; provision "
        f"{fmt_power(result.provision_w)}.\n\n"
    )


def _metrics_section(out: io.StringIO, results: Sequence) -> None:
    out.write("## Metrics\n\n")
    table = Table(
        ["run", "Performance", "CPLJ", "P_max", "avg power", "energy",
         "dPxT", "red?"]
    )
    for r in results:
        m = r.metrics
        table.add_row(
            r.label,
            f"{m.performance:.4f}",
            f"{m.cplj}/{m.finished_jobs}",
            fmt_power(m.p_max_w),
            fmt_power(m.avg_power_w),
            fmt_energy(m.energy_j),
            f"{m.overspend:.5f}",
            "yes" if r.entered_red else ("no" if r.state_cycles else "-"),
        )
    out.write("```\n" + table.render() + "\n```\n\n")


def _comparison_section(out: io.StringIO, results: Sequence) -> None:
    baseline = next((r for r in results if not r.state_cycles), None)
    capped = [r for r in results if r.state_cycles]
    if baseline is None or not capped:
        return
    out.write(f"## Normalised against `{baseline.label}`\n\n")
    table = Table(
        ["run", "P_max ratio", "energy ratio", "dPxT reduction", "perf loss"]
    )
    for r in capped:
        c = compare_runs(r.metrics, baseline.metrics)
        table.add_row(
            r.label,
            f"{c.p_max_ratio:.3f}",
            f"{c.energy_ratio:.3f}",
            f"{c.overspend_reduction:.1%}",
            f"{1 - c.performance:.1%}",
        )
    out.write("```\n" + table.render() + "\n```\n\n")


def _trajectory_section(out: io.StringIO, results: Sequence) -> None:
    out.write("## Power trajectory\n\n")
    reference = results[0]
    stride = max(1, len(reference.times) // 100)
    series = {}
    for r in results[:3]:  # at most three series keep the chart readable
        series[r.label] = r.power_w[::stride]
    x = reference.times[::stride]
    # Align lengths defensively (runs share the protocol, so they match).
    n = min(len(x), *(len(v) for v in series.values()))
    series = {k: v[:n] for k, v in series.items()}
    out.write(
        "```\n"
        + ascii_chart(x[:n], series, title="total power, watts", height=14, width=72)
        + "\n```\n\n"
    )


def _per_app_section(out: io.StringIO, results: Sequence) -> None:
    out.write("## Per-application Performance(cap)\n\n")
    apps: dict[str, dict[str, float]] = {}
    for r in results:
        try:
            breakdown = per_application_performance(r.finished_jobs)
        except MetricError:
            continue
        for app, value in breakdown.items():
            apps.setdefault(app, {})[r.label] = value
    if not apps:
        return
    labels = [r.label for r in results]
    table = Table(["application"] + labels)
    for app in sorted(apps):
        table.add_row(
            app, *(f"{apps[app].get(label, float('nan')):.4f}" for label in labels)
        )
    out.write("```\n" + table.render() + "\n```\n\n")
    out.write(
        "Compute-bound applications (EP) pay the largest capping cost; "
        "memory/communication-bound ones (CG) are nearly free to "
        "throttle — the DVFS-sensitivity story behind the paper's small "
        "overall loss.\n\n"
    )


def _thermal_section(out: io.StringIO, results: Sequence) -> None:
    rows = [r for r in results if r.peak_temperature_c is not None]
    if not rows:
        return
    out.write("## Thermal / reliability\n\n")
    table = Table(["run", "peak node temp (C)", "expected failures"])
    for r in rows:
        table.add_row(
            r.label,
            f"{r.peak_temperature_c:.1f}",
            f"{r.expected_failures:.3e}",
        )
    out.write("```\n" + table.render() + "\n```\n\n")


def render_run_report(results: Sequence, title: str = "Experiment report") -> str:
    """Render a Markdown report over one or more experiment results.

    Args:
        results: Results from :func:`repro.experiments.run_experiment`,
            all from the *same* configuration (the first result's config
            is reported).  Include the unmanaged baseline to get the
            normalised-comparison section.
        title: Document title.

    Raises:
        MetricError: on an empty result list.
    """
    if not results:
        raise MetricError("cannot report on zero results")
    out = io.StringIO()
    out.write(f"# {title}\n\n")
    out.write(
        "Generated by `repro`, the reproduction of *A Power Provision "
        "and Capping Architecture for Large Scale Systems* (IPPS 2012).\n\n"
    )
    _config_section(out, results[0])
    _metrics_section(out, results)
    _comparison_section(out, results)
    _trajectory_section(out, results)
    _per_app_section(out, results)
    _thermal_section(out, results)
    return out.getvalue()
