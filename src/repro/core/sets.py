"""Node-set classification: A_total, A_uncontrollable, A_candidate (§II.A).

The architecture's first idea is that not every node should be monitored
or throttled: privileged nodes (no DVFS facility, or running urgent /
SLA-critical work) are *uncontrollable*, and even among controllable nodes
only a subset — the *candidate set* — is worth the monitoring cost
(Figure 5's scalability argument).  :class:`NodeSets` captures the
classification, and :meth:`NodeSets.select` picks the candidate sets of
a given size the Figure 6 sweep uses.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import ConfigurationError

__all__ = ["NodeSets"]


class NodeSets:
    """The §II.A classification over one cluster.

    Args:
        cluster: The machine; its state's ``controllable`` flags define
            ``A_uncontrollable`` (flag False ⇒ privileged).
        candidate_ids: The monitored/throttleable candidate set; must be
            controllable nodes.  Defaults to *all* controllable nodes.
    """

    def __init__(
        self, cluster: Cluster, candidate_ids: np.ndarray | None = None
    ) -> None:
        self._cluster = cluster
        num_nodes = cluster.num_nodes
        controllable = np.flatnonzero(cluster.state.controllable).astype(np.int64)
        if candidate_ids is None:
            ids = controllable
        else:
            ids = np.unique(np.asarray(candidate_ids, dtype=np.int64))
            if ids.size and (ids.min() < 0 or ids.max() >= num_nodes):
                raise ConfigurationError("candidate id out of range")
            if not np.all(cluster.state.controllable[ids]):
                bad = ids[~cluster.state.controllable[ids]]
                raise ConfigurationError(
                    f"candidate set contains privileged nodes: {bad.tolist()}"
                )
        self._candidates = ids.copy()
        self._candidates.setflags(write=False)
        self._candidate_mask = np.zeros(num_nodes, dtype=bool)
        self._candidate_mask[self._candidates] = True
        self._candidate_mask.setflags(write=False)
        #: Whether ``A_candidate`` is ``A_total``: every node is a
        #: candidate, none privileged or unmonitored.
        self.whole_machine = ids.size == num_nodes

    # ------------------------------------------------------------------
    # The four sets
    # ------------------------------------------------------------------
    @property
    def total(self) -> np.ndarray:
        """``A_total``: every node consuming the power budget."""
        return np.arange(self._cluster.num_nodes, dtype=np.int64)

    @property
    def uncontrollable(self) -> np.ndarray:
        """``A_uncontrollable``: privileged nodes."""
        return np.flatnonzero(~self._cluster.state.controllable).astype(np.int64)

    @property
    def candidates(self) -> np.ndarray:
        """``A_candidate``: the monitored, throttleable subset."""
        return self._candidates

    @property
    def candidate_mask(self) -> np.ndarray:
        """Boolean mask over all nodes: True ⇔ in ``A_candidate``."""
        return self._candidate_mask

    @property
    def size(self) -> int:
        """``|A_candidate|``."""
        return len(self._candidates)

    def is_candidate(self, node_id: int) -> bool:
        """Whether ``node_id`` is in the candidate set."""
        return bool(self._candidate_mask[node_id])

    # ------------------------------------------------------------------
    # Candidate-set construction (Figure 6 sweep)
    # ------------------------------------------------------------------
    @classmethod
    def select(cls, cluster: Cluster, size: int) -> "NodeSets":
        """Build a candidate set of the ``size`` lowest-numbered
        controllable nodes.  With a first-fit allocator these are the
        busiest nodes, so this matches deploying agents on the most
        load-bearing part of the machine.

        Args:
            cluster: The machine.
            size: ``|A_candidate|``; 0 yields an empty candidate set
                (the "no power management" end of the Figure 6 sweep).

        Raises:
            ConfigurationError: if fewer controllable nodes exist than
                requested.
        """
        controllable = np.flatnonzero(cluster.state.controllable).astype(np.int64)
        if size < 0 or size > len(controllable):
            raise ConfigurationError(
                f"candidate size {size} outside [0, {len(controllable)}]"
            )
        return cls(cluster, controllable[:size])
