"""Per-node profiling agents.

# reprolint: hot-path

On the real machine each agent reads ``Uti_cpu``, ``Mem_used``,
``Mem_total`` from the Linux ``/proc`` interface and ``Data_NIC`` from the
Tianhe-1A communication chipset's log (§V.A).  Here an agent reads the
same four operating-point quantities from the simulated cluster state.

:class:`AgentPool` sweeps every candidate node's agent through a
:class:`~repro.cluster.engine.ClusterEngine`; this is what the central
collector uses.  With the default vector engine the sweep is one
fancy-indexed gather; with the object engine it is a per-node loop of
:class:`NodeSample` readings, bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.engine import ClusterEngine, get_engine
from repro.cluster.state import ClusterState
from repro.errors import TelemetryError

__all__ = ["NodeSample", "AgentPool"]


@dataclass(frozen=True)
class NodeSample:
    """One agent's reading of its node's operating point.

    Attributes mirror the inputs of Formula (1) plus identity/occupancy.
    """

    node_id: int
    time: float
    level: int
    cpu_util: float
    mem_frac: float
    nic_frac: float
    job_id: int  #: -1 when the node is idle


class AgentPool:
    """Vectorised sampling of a set of agents (one per candidate node).

    Args:
        state: The cluster state.
        node_ids: The candidate nodes agents are deployed on.
        engine: Hot-path engine performing the sweep (instance, registry
            name, or ``None`` for the default vector engine).
    """

    def __init__(
        self,
        state: ClusterState,
        node_ids: np.ndarray,
        engine: ClusterEngine | str | None = None,
    ) -> None:
        ids = np.asarray(node_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= state.num_nodes):
            raise TelemetryError("agent node id out of range")
        if len(np.unique(ids)) != len(ids):
            raise TelemetryError("duplicate agent node ids")
        self._state = state
        self._node_ids = ids.copy()
        self._node_ids.setflags(write=False)
        self._samples_taken = 0
        self._engine = get_engine(engine)

    @property
    def node_ids(self) -> np.ndarray:
        """The monitored nodes (read-only view)."""
        return self._node_ids

    @property
    def size(self) -> int:
        """Number of deployed agents."""
        return len(self._node_ids)

    @property
    def samples_taken(self) -> int:
        """Number of pool-wide sampling sweeps performed."""
        return self._samples_taken

    def sample_arrays(
        self, now: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sample every agent at once.

        Returns:
            ``(level, cpu_util, mem_frac, nic_frac, job_id)`` arrays, one
            entry per monitored node in ``node_ids`` order.  Arrays are
            copies — the snapshot stays valid after the state mutates.
        """
        self._samples_taken += 1
        return self._engine.sample_telemetry(self._state, self._node_ids, now)
