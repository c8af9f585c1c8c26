"""Monitoring substrate: profiling agents, the central collector, and the
management-cost model behind the paper's Figure 5.

The architecture deploys "a profiling agent to each node in the candidate
set" (§II.C); the global power manager periodically collects every agent's
sample and estimates per-node and per-job power:

* :class:`~repro.telemetry.agent.AgentPool` — the candidate nodes'
  agents, each reading its node's ``/proc``-equivalent state;
* :class:`~repro.telemetry.collector.TelemetryCollector` — the central
  collection step, which samples *all* candidate agents in one vectorised
  snapshot;
* :func:`~repro.telemetry.cost.cpu_utilization` — the CPU cost of
  central monitoring as a function of candidate-set size, the quantity
  Figure 5 plots to argue that monitoring must be restricted to a subset;
* :mod:`repro.telemetry.integrity` — the telemetry-integrity defense:
  per-sample validation, per-node trust scores and quarantine, and the
  meter-residual cross-check (counterpart of
  :mod:`repro.faults.corruption`).
"""

from repro.telemetry.agent import AgentPool, NodeSample
from repro.telemetry.collector import TelemetryCollector, TelemetrySnapshot
from repro.telemetry.integrity import (
    IntegrityConfig,
    MeterIntegrityMonitor,
    TelemetryValidator,
    ValidationResult,
)

__all__ = [
    "AgentPool",
    "IntegrityConfig",
    "MeterIntegrityMonitor",
    "NodeSample",
    "TelemetryCollector",
    "TelemetrySnapshot",
    "TelemetryValidator",
    "ValidationResult",
]
