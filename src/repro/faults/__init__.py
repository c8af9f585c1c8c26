"""Fault injection and degraded-mode control configuration.

The paper's architecture (Figure 1, §III.A) assumes the system meter,
every profiling agent and every DVFS command work on every control
cycle; its own motivation (§I.A) is that large systems fail constantly.
This package closes that gap: deterministic, seeded fault models for the
*monitoring plane* — telemetry dropout, meter outage and noise, command
loss and delay, per-node monitoring crashes — plus the manager's
degraded-mode fail-safe ladder.

* :class:`~repro.faults.scenario.FaultScenario` — frozen description of
  the failure rates of one run (``FaultScenario.none()`` is the paper's
  fault-free setting and changes nothing, bit for bit);
* :mod:`repro.faults.models` — the seeded stochastic processes;
* :class:`~repro.faults.injector.FaultInjector` — the per-run object
  the manager, collector and actuator query each cycle, plus
  :class:`~repro.faults.injector.FaultStats` accounting;
* :class:`~repro.faults.degraded.DegradedModeLadder` — the fail-safe
  ladder (stale-age bound, blackout detection);
* :mod:`repro.faults.corruption` — sensor-corruption models: telemetry
  that keeps arriving but is wrong (stuck-at, drift, gain error,
  spikes, garbage, byzantine meter), defended by
  :mod:`repro.telemetry.integrity`.
"""

from repro.faults.corruption import CorruptionScenario, SensorCorruptionModel
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.models import (
    ActuationFaultModel,
    ControllerCrashModel,
    MeterFaultModel,
    NodeCrashModel,
    TelemetryFaultModel,
)
from repro.faults.scenario import FaultScenario

__all__ = [
    "ActuationFaultModel",
    "ControllerCrashModel",
    "CorruptionScenario",
    "FaultInjector",
    "FaultScenario",
    "FaultStats",
    "MeterFaultModel",
    "NodeCrashModel",
    "SensorCorruptionModel",
    "TelemetryFaultModel",
]
