"""Network interface (interconnect chipset) specification.

Formula (1) charges the communication device ``Data_NIC / (τ · BW_NIC) ·
P_NIC(l)``: the fraction of the link's capacity actually used during the
sampling interval times the device's maximal dynamic power.  The paper's
platform embeds a Tianhe-1A proprietary communication chipset on each main
board; its link rate was 160 Gb/s per direction in the TH-1A generation.

As with memory, NIC power is only indirectly coupled to CPU DVFS (a slower
core injects messages more slowly); the coupling factor mirrors
:class:`repro.cluster.memory.MemorySpec`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.dvfs import DvfsTable
from repro.errors import ConfigurationError
from repro.units import gb_per_s

__all__ = ["NicSpec"]


@dataclass(frozen=True)
class NicSpec:
    """The communication device of one node.

    Args:
        bandwidth_bytes_per_s: Peak unidirectional link bandwidth.
        max_dynamic_power_w: Peak dynamic power at full link utilisation.
        idle_power_w: Power drawn with an idle link (part of node idle).
        dvfs_coupling: Fraction of dynamic NIC power scaling with core
            speed, in ``[0, 1]``.
    """

    bandwidth_bytes_per_s: float
    max_dynamic_power_w: float
    idle_power_w: float
    dvfs_coupling: float = 0.2

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("NIC bandwidth must be positive")
        if self.max_dynamic_power_w < 0:
            raise ConfigurationError("NIC dynamic power must be non-negative")
        if self.idle_power_w < 0:
            raise ConfigurationError("NIC idle power must be non-negative")
        if not 0.0 <= self.dvfs_coupling <= 1.0:
            raise ConfigurationError("dvfs_coupling must lie in [0, 1]")

    @classmethod
    def tianhe_interconnect(cls) -> "NicSpec":
        """The Tianhe-1A proprietary high-speed communication chipset.

        160 Gb/s ≈ 20 GB/s per direction; ~15 W peak dynamic over ~10 W
        idle, in line with contemporary high-radix router NICs.
        """
        return cls(
            bandwidth_bytes_per_s=gb_per_s(20.0),
            max_dynamic_power_w=15.0,
            idle_power_w=10.0,
            dvfs_coupling=0.2,
        )

    def dynamic_power_per_level(self, dvfs: DvfsTable) -> np.ndarray:
        """``P_NIC(l)`` for every level of ``dvfs``, watts."""
        speed = np.asarray(dvfs.speed(np.arange(dvfs.num_levels)), dtype=np.float64)
        factor = (1.0 - self.dvfs_coupling) + self.dvfs_coupling * speed
        return self.max_dynamic_power_w * factor
