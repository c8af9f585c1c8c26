"""Whole-node first-fit allocation.

The paper's launcher places one MPI process per core and hands out whole
nodes.  The allocator therefore converts a process count into a node count
(ceiling division by cores-per-node) and picks the lowest-numbered idle
nodes — deterministic, which keeps experiment runs reproducible.

Release is performed by the scheduler through
:meth:`repro.cluster.state.ClusterState.release_job`; the allocator is
stateless and reads occupancy straight from the cluster state, so the two
can never disagree.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import AllocationError

__all__ = ["NodeAllocator"]


class NodeAllocator:
    """First-fit whole-node allocator over a cluster's live state."""

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster

    def nodes_needed(self, nprocs: int) -> int:
        """Whole nodes required for ``nprocs`` one-per-core processes."""
        return self._cluster.nodes_for_processes(nprocs)

    def can_ever_fit(self, nprocs: int) -> bool:
        """Whether the request fits an *empty* cluster at all."""
        return self.nodes_needed(nprocs) <= self._cluster.num_nodes

    def try_allocate(
        self, nprocs: int, blocked: np.ndarray | None = None
    ) -> np.ndarray | None:
        """Idle nodes for the request, or ``None`` if it must wait.

        Args:
            nprocs: One-per-core process count to place.
            blocked: Optional boolean mask of nodes that must not be
                allocated even though idle (offline/shed/blacked-out —
                see :meth:`repro.scheduler.scheduler.BatchScheduler.take_offline`).

        Raises:
            AllocationError: if the request exceeds the whole cluster
                (it could never be satisfied, so queueing it would wedge
                a FIFO scheduler forever).
        """
        needed = self.nodes_needed(nprocs)
        if needed > self._cluster.num_nodes:
            raise AllocationError(
                f"request for {nprocs} processes needs {needed} nodes; "
                f"cluster has {self._cluster.num_nodes}"
            )
        if blocked is None:
            idle = self._cluster.state.idle_nodes()
        else:
            mask = self._cluster.state.idle_mask() & ~np.asarray(
                blocked, dtype=bool
            )
            idle = np.flatnonzero(mask).astype(np.int64)
        if len(idle) < needed:
            return None
        return idle[:needed]

    def free_nodes(self, blocked: np.ndarray | None = None) -> int:
        """Current number of idle nodes, leaving out ``blocked`` ones
        (the mask :meth:`try_allocate` takes)."""
        mask = self._cluster.state.idle_mask()
        if blocked is not None:
            mask &= ~np.asarray(blocked, dtype=bool)
        return int(mask.sum())
