"""Node specification.

:class:`NodeSpec` bundles the device specs of one compute blade and
pre-computes the four per-level coefficient vectors that Formula (1)
consumes:

* ``idle_power_per_level`` — ``P_idle(l)``: board + CPU static + memory
  background + NIC idle;
* ``cpu_dynamic_per_level`` — ``Σ_x P_x(l)`` over all CPU packages;
* ``mem_dynamic_per_level`` — ``P_mem(l)``;
* ``nic_dynamic_per_level`` — ``P_NIC(l)``.

All four are plain numpy vectors indexed by DVFS level, so evaluating the
whole cluster's power is four gathers and a fused multiply-add (see
:mod:`repro.power.model`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cpu import ProcessorSpec
from repro.cluster.dvfs import DvfsTable
from repro.cluster.memory import MemorySpec
from repro.cluster.nic import NicSpec
from repro.errors import ConfigurationError

__all__ = ["NodeSpec"]


@dataclass(frozen=True)
class NodeSpec:
    """Specification of one compute node (blade).

    Args:
        processor: CPU package spec (all sockets are identical).
        sockets: Number of CPU packages.
        memory: Memory subsystem spec (totals for the whole node).
        nic: Communication device spec.
        board_power_w: Constant power of everything else on the blade —
            voltage regulators, fans' share, baseboard logic.
    """

    processor: ProcessorSpec
    sockets: int
    memory: MemorySpec
    nic: NicSpec
    board_power_w: float
    idle_power_per_level: np.ndarray = field(init=False, repr=False, compare=False)
    cpu_dynamic_per_level: np.ndarray = field(init=False, repr=False, compare=False)
    mem_dynamic_per_level: np.ndarray = field(init=False, repr=False, compare=False)
    nic_dynamic_per_level: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise ConfigurationError("a node needs at least one socket")
        if self.board_power_w < 0:
            raise ConfigurationError("board power must be non-negative")
        dvfs = self.processor.dvfs
        idle = (
            self.board_power_w
            + self.sockets * self.processor.idle_power_per_level()
            + self.memory.total_idle_power_w
            + self.nic.idle_power_w
        )
        object.__setattr__(self, "idle_power_per_level", idle)
        object.__setattr__(
            self,
            "cpu_dynamic_per_level",
            self.sockets * self.processor.dynamic_power_per_level(),
        )
        object.__setattr__(
            self, "mem_dynamic_per_level", self.memory.dynamic_power_per_level(dvfs)
        )
        object.__setattr__(
            self, "nic_dynamic_per_level", self.nic.dynamic_power_per_level(dvfs)
        )
        for arr in (
            self.idle_power_per_level,
            self.cpu_dynamic_per_level,
            self.mem_dynamic_per_level,
            self.nic_dynamic_per_level,
        ):
            arr.setflags(write=False)

    @classmethod
    def tianhe_1a(cls) -> "NodeSpec":
        """The paper's compute blade: 2× Xeon X5670, 12× 4 GB DDR3, TH NIC."""
        return cls(
            processor=ProcessorSpec.xeon_x5670(),
            sockets=2,
            memory=MemorySpec.tianhe_ddr3(),
            nic=NicSpec.tianhe_interconnect(),
            board_power_w=70.0,
        )

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    @property
    def dvfs(self) -> DvfsTable:
        """The node's DVFS ladder (that of its processors)."""
        return self.processor.dvfs

    @property
    def num_levels(self) -> int:
        """Number of node power states (= processor P-states)."""
        return self.dvfs.num_levels

    @property
    def top_level(self) -> int:
        """Highest (full-performance) power state index."""
        return self.dvfs.top_level

    @property
    def cores(self) -> int:
        """Total core count of the node."""
        return self.sockets * self.processor.cores

    @property
    def memory_bytes(self) -> int:
        """Total memory capacity of the node, bytes."""
        return self.memory.total_capacity_bytes

    def max_power(self, level: int | None = None) -> float:
        """Peak node power (all devices saturated) at ``level``.

        Defaults to the top level, which is the per-node term ``P_i`` of
        the paper's theoretical maximum ``P_thy = Σ P_i``.
        """
        lv = self.top_level if level is None else level
        self.dvfs._check_level(lv)
        return float(
            self.idle_power_per_level[lv]
            + self.cpu_dynamic_per_level[lv]
            + self.mem_dynamic_per_level[lv]
            + self.nic_dynamic_per_level[lv]
        )

    def min_power(self) -> float:
        """Idle node power at the lowest level (floor of controllability)."""
        return float(self.idle_power_per_level[0])

