"""The traced run's report: per-layer metrics, coverage and profile check."""

from __future__ import annotations

from collections import Counter
from typing import Any

from perfbench.tracing import MAIN, PER_LAYER, TRAINING, SpanStats, Tracer, layer_metrics
from perfbench.workloads import Iteration, Workload

#: The profile ROADMAP.md and the workload notes expect, as shares of
#: protocol host time measured under cProfile.
EXPECTED_STEP_JOBS_SHARE = 0.78
EXPECTED_TRAINING_SHARE = 0.51
EXPECTED_CLEAN_CYCLE_SHARE = 0.13
EXPECTED_DEFENDED_CYCLE_SHARE = 0.42


def empty_layer_metrics() -> dict[str, Any]:
    """Every per-layer metric at zero, for a run that could not trace."""
    return {name: (0.0, unit) for name, unit, *_ in PER_LAYER}


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def profile_lines(
    workload: Workload, stats: SpanStats, values: dict[str, Any], warm_ms: float
) -> list[str]:
    """Whether the breakdown confirms or corrects the expected profile."""
    runs_ms = stats.total_ms["experiments.run_experiment"]
    hottest = max(stats.self_ms, key=stats.self_ms.__getitem__)
    lines = [f"profile check ({workload.name}):"]
    if workload.name == "paper-protocol":
        step = _share(stats.total_ms["cluster.step_jobs"], runs_ms)
        training = _share(values["experiments.training_ms"][0], runs_ms)
        cycle = _share(stats.total_ms["core.control_cycle"], runs_ms)
        verdict = "confirms" if hottest == "cluster.step_jobs" and step >= 0.5 else "corrects"
        lines += [
            f"  job stepping (VectorEngine.step_jobs) {step:.1%} of protocol host time; "
            f"expected ~{EXPECTED_STEP_JOBS_SHARE:.0%} -> {verdict} "
            f"(largest self time: {hottest})",
            f"  training window {training:.1%} (expected ~{EXPECTED_TRAINING_SHARE:.0%}); "
            f"control cycle {cycle:.1%} (expected ~{EXPECTED_CLEAN_CYCLE_SHARE:.0%})",
        ]
    elif workload.name == "defended-chaos":
        cycle_ms = stats.total_ms["ha.control_cycle"] or stats.total_ms["core.control_cycle"]
        cycle = _share(cycle_ms, runs_ms)
        verdict = "confirms" if cycle >= 0.3 else "corrects"
        lines.append(
            f"  control cycle (with HA, faults, integrity, provision) {cycle:.1%} of "
            f"protocol host time; expected ~{EXPECTED_DEFENDED_CYCLE_SHARE:.0%} "
            f"-> {verdict} (largest self time: {hottest})"
        )
    else:
        reads = _share(stats.total_ms["experiments.cache_get"], warm_ms)
        verdict = "confirms" if reads >= 0.5 else "corrects"
        lines.append(
            f"  cache reads (ResultCache.get) {reads:.1%} of the warm passes -> {verdict}; "
            f"cold pass largest self time: {hottest}"
        )
    return lines


def layer_report(
    workload: Workload, tracer: Tracer, pairs: list[tuple[Iteration, Iteration]]
) -> tuple[dict[str, Any], list[str]]:
    """Per-layer metrics per traced iteration, and their printout."""
    n = len(pairs)
    stats = SpanStats.of(tracer).per(n)
    values = layer_metrics(stats, Counter({k: v / n for k, v in tracer.counts.items()}))
    plain_s = sum(plain.wall_s for plain, _ in pairs)
    traced_s = sum(traced.wall_s for _, traced in pairs)
    wall_ms = 1e3 * traced_s / n
    values["bench.trace_overhead"] = (traced_s / plain_s - 1.0, "ratio", True)
    values["bench.unattributed_ms"] = (wall_ms - stats.top_level_ms, "ms", True)
    lines = [
        f"per-layer metrics, mean of {n} traced iteration(s) "
        "('not exercised': no call reached it):"
    ]
    for name, (value, unit, exercised) in values.items():
        mark = "" if exercised else "  not exercised"
        lines.append(f"  {name:38s} {value:16.3f} {unit:6s}{mark}")
    lines.append(
        f"named layers account for {_share(stats.top_level_ms, wall_ms):.1%} of a "
        f"traced iteration's {wall_ms:.0f} ms wall time"
    )
    lines.append("self time by entry point (ms: total / training / main):")
    for name in sorted(stats.self_ms, key=stats.self_ms.__getitem__, reverse=True):
        lines.append(
            f"  {name:30s} {stats.self_ms[name]:12.1f} "
            f"{stats.phase_self_ms[(name, TRAINING)]:12.1f} "
            f"{stats.phase_self_ms[(name, MAIN)]:12.1f}  calls {stats.calls[name]:g}"
        )
    warm_ms = 1e3 * sum(sum(traced.warm_s) for _, traced in pairs) / n
    lines += profile_lines(workload, stats, values, warm_ms)
    return {name: (v, unit) for name, (v, unit, _) in values.items()}, lines
