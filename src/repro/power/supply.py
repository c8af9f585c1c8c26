"""Power provision capability and the paper's assumption checks.

§II.D of the paper articulates four assumptions; two of them constrain the
relationship between the provision capability ``P_Max`` (what the power
supply subsystem can deliver) and the cluster:

* **Necessity** — ``P_Max < P_thy``: provisioning the theoretical peak
  would waste construction cost, so capping must exist;
* **Operability** — ``P_Max`` is high enough that the system functions
  normally and only occasional spikes need throttling.

:class:`PowerProvision` encodes those checks plus the derived quantities
experiments need: the overspend threshold ``P_th`` used by the ΔP×T metric
is the provision capability itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import ConfigurationError
from repro.types import Watts

__all__ = ["PowerProvision"]


@dataclass(frozen=True)
class PowerProvision:
    """The designed capability of the power supply subsystem.

    Args:
        capability_w: ``P_Max`` — maximal deliverable power, watts.
    """

    capability_w: float

    def __post_init__(self) -> None:
        if self.capability_w <= 0:
            raise ConfigurationError("provision capability must be positive")

    @classmethod
    def for_cluster(cls, cluster: Cluster, fraction_of_peak: float) -> "PowerProvision":
        """Provision a cluster at a fraction of its theoretical peak.

        ``fraction_of_peak`` must lie strictly between the idle floor and
        1.0; values near 0.8–0.9 reproduce the paper's premise of "a clear
        gap between the maximum power actually used … and their aggregate
        theoretical peak usage".
        """
        if not 0.0 < fraction_of_peak < 1.0:
            raise ConfigurationError(
                "fraction_of_peak must lie in (0, 1) for Necessity to hold"
            )
        capability = fraction_of_peak * cluster.theoretical_max_power()
        provision = cls(capability_w=capability)
        provision.check_assumptions(cluster)
        return provision

    # ------------------------------------------------------------------
    # Assumption checks (§II.D)
    # ------------------------------------------------------------------
    def satisfies_necessity(self, cluster: Cluster) -> bool:
        """Necessity: ``P_Max < P_thy``."""
        return self.capability_w < cluster.theoretical_max_power()

    def throttled_floor(self, cluster: Cluster) -> float:
        """Power with every controllable node idle at level 0, privileged
        nodes saturated at the top level — the worst-case floor reachable
        by a red-state response, watts."""
        state = cluster.state
        mins = np.asarray([s.min_power() for s in state.specs])[state.spec_index]
        maxs = np.asarray([s.max_power() for s in state.specs])[state.spec_index]
        mask = state.controllable
        return float(mins[mask].sum() + maxs[~mask].sum())

    def check_assumptions(self, cluster: Cluster) -> None:
        """Raise :class:`ConfigurationError` if Necessity or
        Controllability fail for ``cluster``."""
        if not self.satisfies_necessity(cluster):
            raise ConfigurationError(
                f"Necessity violated: capability {self.capability_w:.0f} W is "
                f"not below P_thy {cluster.theoretical_max_power():.0f} W"
            )
        if self.throttled_floor(cluster) >= self.capability_w:
            raise ConfigurationError(
                "Controllability violated: even fully throttled, the cluster "
                f"draws {self.throttled_floor(cluster):.0f} W >= capability "
                f"{self.capability_w:.0f} W"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def overspend_threshold_w(self) -> float:
        """``P_th`` of the ΔP×T metric: the provision capability."""
        return self.capability_w

    def headroom(self, current_power_w: Watts) -> float:
        """Watts between a reading and the capability (negative if over)."""
        return self.capability_w - current_power_w
