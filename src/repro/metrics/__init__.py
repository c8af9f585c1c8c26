"""Metric library: the paper's four evaluation metrics plus robustness
metrics for fault-injection and failover runs.

Paper metrics (§V.C):

* :func:`~repro.metrics.performance.performance_metric` —
  ``Performance(cap) = (1/J) Σ T_j / T_cap,j`` over finished jobs;
* :func:`~repro.metrics.performance.count_performance_lossless_jobs` —
  CPLJ;
* :func:`~repro.metrics.power.peak_power` — ``P_max``;
* :func:`~repro.metrics.power.accumulated_overspend` — ``ΔP×T``, the
  paper's new metric (ratio of over-threshold power-time integral to the
  total power-time integral).

Robustness metrics (:mod:`repro.metrics.faults`, for fault-injection
and failover runs): cap-violation seconds, time-to-cap-restoration,
controller downtime, failover count and recovery divergence.

:mod:`repro.metrics.summary` bundles everything into per-run
:class:`~repro.metrics.summary.RunMetrics` and baseline-normalised
comparisons, which are what the figure harnesses print.
"""

from repro.metrics.faults import (
    cap_violation_seconds,
    controller_downtime_seconds,
    failover_count,
    recovery_divergence_w,
    time_to_cap_restoration,
    violation_episodes,
)
from repro.metrics.performance import (
    count_performance_lossless_jobs,
    performance_metric,
    per_application_performance,
)
from repro.metrics.power import (
    accumulated_overspend,
    average_power,
    energy_joules,
    peak_power,
)
from repro.metrics.summary import RunComparison, RunMetrics, compare_runs

__all__ = [
    "RunComparison",
    "RunMetrics",
    "accumulated_overspend",
    "average_power",
    "cap_violation_seconds",
    "compare_runs",
    "controller_downtime_seconds",
    "count_performance_lossless_jobs",
    "failover_count",
    "energy_joules",
    "peak_power",
    "per_application_performance",
    "performance_metric",
    "recovery_divergence_w",
    "time_to_cap_restoration",
    "violation_episodes",
]
