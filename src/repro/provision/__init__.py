"""Power-delivery fault domain: topology, shrinking budgets, defense.

The paper provisions a single scalar capability ``P_Max``; this package
models where that capability actually comes from — redundant utility
feeds and per-rack PDU/breaker branch circuits — and what
happens to Algorithm 1 when parts of that delivery path fail or an
operator order shrinks the budget mid-run:

* :class:`~repro.provision.topology.PowerTopology` — the rated,
  immutable delivery hierarchy;
* :class:`~repro.provision.scenario.ProvisionScenario` — which
  capacity events fire and when, plus the defense knobs;
* :class:`~repro.provision.runtime.ProvisionRuntime` — live delivery
  state: feed masks, PDU derates, breaker trip integrals, cap orders
  (stochastic events on the dedicated ``faults.provision`` substream);
* :class:`~repro.provision.emergency.EmergencyResponse` — the
  emergency-red fast path, per-branch capping and the degradation
  ladder (DVFS floor → suspend → shed), with gradual re-admission.

All budget and capacity mutation flows through this package and
:meth:`repro.core.thresholds.ThresholdController.set_envelope` —
reprolint rule RL303 rejects raw writes to budget state anywhere else.
"""

from repro.provision.emergency import EmergencyResponse
from repro.provision.runtime import (
    ProvisionCycleEvents,
    ProvisionRuntime,
    ProvisionStats,
)
from repro.provision.scenario import ProvisionScenario
from repro.provision.topology import PowerTopology

__all__ = [
    "EmergencyResponse",
    "PowerTopology",
    "ProvisionCycleEvents",
    "ProvisionRuntime",
    "ProvisionScenario",
    "ProvisionStats",
]
