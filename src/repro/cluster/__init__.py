"""Machine model substrate: nodes, devices and DVFS.

This package simulates the hardware platform of the paper's evaluation — a
128-node Tianhe-1A variant — at the level of detail the power-capping
architecture actually observes and actuates:

* :mod:`repro.cluster.dvfs` — discrete frequency/voltage tables (the Xeon
  X5670's 10 P-states ship as the default);
* :mod:`repro.cluster.cpu`, :mod:`repro.cluster.memory`,
  :mod:`repro.cluster.nic` — per-device specifications with maximum dynamic
  power figures used by the Formula (1) power model;
* :mod:`repro.cluster.node` — the node specification and a thin per-node
  object view;
* :mod:`repro.cluster.state` — the numpy structure-of-arrays holding the
  live operating state of every node (DVFS level, CPU utilisation, memory
  occupancy, NIC rate, running job), which is what makes whole-cluster
  power evaluation a handful of vectorised array operations;
* :mod:`repro.cluster.cluster` — the aggregate ``Cluster`` facade;
* :mod:`repro.cluster.engine` — the hot-path engine switch (vectorised
  production path vs. the paper-literal object-per-node reference, bit-
  identical by construction), with the concrete engines in
  :mod:`repro.cluster.vector` and :mod:`repro.cluster.object_engine`.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.cpu import ProcessorSpec
from repro.cluster.dvfs import DvfsTable
from repro.cluster.engine import (
    ClusterEngine,
    available_engines,
    canonical_power_sum,
    canonical_power_sums,
    get_engine,
)
from repro.cluster.memory import MemorySpec
from repro.cluster.nic import NicSpec
from repro.cluster.node import NodeSpec
from repro.cluster.state import ClusterState

__all__ = [
    "Cluster",
    "ClusterEngine",
    "ClusterState",
    "DvfsTable",
    "MemorySpec",
    "NicSpec",
    "NodeSpec",
    "ProcessorSpec",
    "available_engines",
    "canonical_power_sum",
    "canonical_power_sums",
    "get_engine",
]
