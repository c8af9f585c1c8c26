"""The paper's contribution: the power provision and capping architecture.

Composition (one control cycle of :class:`~repro.core.manager.PowerManager`):

1. the **meter** reads total system power ``P`` (Observability);
2. the **collector** sweeps the candidate set's profiling agents;
3. the **threshold controller** classifies ``P`` against ``P_L``/``P_H``
   (green / yellow / red) and periodically re-learns the thresholds from
   the observed peak (§III.A);
4. the **capping algorithm** (Algorithm 1) decides: steady-green upgrade,
   yellow one-level degradation of a policy-selected target set, or red
   emergency drop of every candidate to its lowest state;
5. the **target-selection policy** (§IV) picks which job's nodes to
   degrade in yellow — state-based (MPC, MPC-C, LPC, LPC-C, BFP) or
   change-based (HRI, HRI-C);
6. the **actuator** issues the DVFS commands.

Modules:

* :mod:`repro.core.sets` — the A_total / A_uncontrollable / A_candidate /
  A_target classification (§II.A);
* :mod:`repro.core.states` — green/yellow/red classification (§II.B);
* :mod:`repro.core.thresholds` — threshold learning and adjustment
  (§III.A);
* :mod:`repro.core.capping` — Algorithm 1;
* :mod:`repro.core.policies` — the target-selection policy zoo;
* :mod:`repro.core.actuator` — DVFS command issue;
* :mod:`repro.core.manager` — the assembled control loop.
"""

from repro.core.actuator import ActuationReport, DvfsActuator
from repro.core.capping import CappingAction, CappingDecision, PowerCappingAlgorithm
from repro.core.manager import CycleReport, PowerManager
from repro.core.policies import (
    PolicyContext,
    SelectionPolicy,
    available_policies,
    make_policy,
)
from repro.core.sets import NodeSets
from repro.core.states import PowerState, classify_power_state
from repro.core.thresholds import PowerThresholds, ThresholdController

__all__ = [
    "ActuationReport",
    "CappingAction",
    "CappingDecision",
    "CycleReport",
    "DvfsActuator",
    "NodeSets",
    "PolicyContext",
    "PowerCappingAlgorithm",
    "PowerManager",
    "PowerState",
    "PowerThresholds",
    "SelectionPolicy",
    "ThresholdController",
    "available_policies",
    "classify_power_state",
    "make_policy",
]
