"""Target-set selection policies (§IV).

When the system enters the yellow state, the capping algorithm asks a
policy which candidate nodes to degrade by one level.  The paper defines
two families and we implement every member it names, plus the extensions
its future-work section calls for:

**State-based** (§IV.A) — rank jobs by *current* power:

* ``mpc``   — Most Power-Consuming job;
* ``mpc-c`` — most power-consuming job Collection (Algorithm 2);
* ``lpc``   — Least Power-Consuming job;
* ``lpc-c`` — least power-consuming job collection;
* ``bfp``   — Best-Fit job (savings just above the deficit ``P − P_L``).

**Change-based** (§IV.B) — rank jobs by *rate of increase* in power:

* ``hri``   — Highest Rate of Increase job;
* ``hri-c`` — highest-rate collection (the counterpart of MPC-C).

**Extensions** (§VI future work: "implementing other selection policies"):

* ``random`` — uniformly random job (null baseline);
* ``fair``   — least-recently-targeted job (spreads the pain);
* ``hybrid`` — HRI when a clear riser exists, MPC otherwise;
* ``sla``    — Ranganathan-style: lowest-priority job first, most
  power-consuming within a class (needs a priority lookup).

Use :func:`make_policy` to construct by name, :func:`available_policies`
to enumerate.
"""

from repro.core.policies.base import (
    PolicyContext,
    SelectionPolicy,
    available_policies,
    make_policy,
    register_policy,
)
from repro.core.policies.change_based import (
    HighestRateCollectionPolicy,
    HighestRateOfIncreasePolicy,
)
from repro.core.policies.collection import (
    LeastPowerCollectionPolicy,
    MostPowerCollectionPolicy,
)
from repro.core.policies.composite import (
    FairSharePolicy,
    HybridPolicy,
    RandomJobPolicy,
)
from repro.core.policies.sla import SlaAwarePolicy
from repro.core.policies.state_based import (
    BestFitPolicy,
    LeastPowerConsumingPolicy,
    MostPowerConsumingPolicy,
)

__all__ = [
    "BestFitPolicy",
    "FairSharePolicy",
    "HighestRateCollectionPolicy",
    "HighestRateOfIncreasePolicy",
    "HybridPolicy",
    "LeastPowerCollectionPolicy",
    "LeastPowerConsumingPolicy",
    "MostPowerCollectionPolicy",
    "MostPowerConsumingPolicy",
    "PolicyContext",
    "RandomJobPolicy",
    "SelectionPolicy",
    "SlaAwarePolicy",
    "available_policies",
    "make_policy",
    "register_policy",
]
