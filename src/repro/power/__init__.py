"""Power substrate: the Formula (1) profile model, metering and provision.

* :mod:`repro.power.model` — vectorised implementation of the paper's
  power profile model (Formula 1), used both as the simulator's ground
  truth and as the estimator's basis;
* :mod:`repro.power.meter` — the whole-system power meter (Observability
  assumption: "a power meter for the whole system is easy to implement"),
  with optional gaussian measurement noise;
* :mod:`repro.power.supply` — the power provision capability ``P_Max``
  and the Necessity/Operability assumption checks;
* :mod:`repro.power.estimator` — per-node and per-job power estimation
  from telemetry samples, the input of the target-selection policies.
"""

from repro.power.estimator import NodePowerEstimator
from repro.power.hetero import HeterogeneousPowerModel, make_power_model
from repro.power.meter import SystemPowerMeter
from repro.power.model import PowerModel
from repro.power.supply import PowerProvision
from repro.power.thermal import (
    BreakerThermalModel,
    ReliabilityTracker,
    ThermalModel,
    failure_rate_multiplier,
)

__all__ = [
    "BreakerThermalModel",
    "HeterogeneousPowerModel",
    "NodePowerEstimator",
    "PowerModel",
    "PowerProvision",
    "ReliabilityTracker",
    "SystemPowerMeter",
    "ThermalModel",
    "failure_rate_multiplier",
    "make_power_model",
]
