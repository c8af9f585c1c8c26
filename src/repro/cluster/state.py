"""Structure-of-arrays live state of every node in the cluster.

The simulator's hot loop evaluates Formula (1) for every node every control
cycle.  With 128 nodes and a 1-second cycle, a 12-hour experiment touches
~5.5 million node-cycles; a Python object per node per cycle would dominate
the run time.  Following the scientific-Python optimisation guides, the
live state is therefore a handful of flat numpy arrays indexed by node id:

==================  =========  ==============================================
array               dtype      meaning
==================  =========  ==============================================
``level``           int64      current DVFS level
``cpu_util``        float64    CPU utilisation ``Uti_CPU`` ∈ [0, 1]
``mem_frac``        float64    ``Mem_used / Mem_total`` ∈ [0, 1]
``nic_frac``        float64    ``Data_NIC / (τ·BW_NIC)`` ∈ [0, 1]
``job_id``          int64      occupying job id, ``-1`` when idle
``controllable``    bool       node is in the non-privileged pool
==================  =========  ==============================================

Invariants (enforced by the mutation API, checked by property tests):

* ``0 <= level <= spec.top_level`` element-wise;
* utilisation-like arrays stay inside ``[0, 1]``;
* idle nodes (``job_id == -1``) have zero cpu/nic load (their ``mem_frac``
  holds the OS-resident floor).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import NodeSpec
from repro.errors import ConfigurationError

__all__ = ["ClusterState", "outside_range"]

#: Baseline memory fraction of an idle node (OS, daemons, page cache floor).
IDLE_MEM_FRACTION = 0.05


def outside_range(values: np.ndarray, high: int) -> bool:
    """Whether an int64 array has an entry outside ``[0, high]``
    (``high >= 0``): read as unsigned, a negative entry exceeds any
    bound, so one reduction checks both ends."""
    top = np.maximum.reduce(values.view(np.uint64), axis=None, initial=0)
    return bool(top > high)


class ClusterState:
    """Mutable, vectorised operating state of a homogeneous cluster.

    Args:
        spec: The per-node hardware specification (all nodes identical, as
            in the paper's platform).
        num_nodes: Number of compute nodes; each starts at the top
            (full-performance) DVFS level.
    """

    def __init__(
        self,
        spec: NodeSpec,
        num_nodes: int,
        specs: list[NodeSpec] | None = None,
        spec_index: np.ndarray | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        self.spec = spec
        self._top_level = spec.top_level
        #: All node types present; ``specs[spec_index[i]]`` is node i's
        #: type.  Homogeneous clusters have one entry and an all-zero
        #: index.  Heterogeneous types must share the ladder depth so
        #: DVFS levels remain comparable cluster-wide (see
        #: :meth:`repro.cluster.cluster.Cluster.heterogeneous`).
        self.specs: list[NodeSpec] = [spec] if specs is None else list(specs)
        if not self.specs or self.specs[0] is not spec:
            raise ConfigurationError("specs[0] must be the primary spec")
        for other in self.specs[1:]:
            if other.num_levels != spec.num_levels:
                raise ConfigurationError(
                    "heterogeneous node types must share the DVFS ladder depth"
                )
        if spec_index is None:
            self.spec_index = np.zeros(num_nodes, dtype=np.int64)
        else:
            idx = np.asarray(spec_index, dtype=np.int64)
            if idx.shape != (num_nodes,):
                raise ConfigurationError("spec_index must have one entry per node")
            if idx.size and (idx.min() < 0 or idx.max() >= len(self.specs)):
                raise ConfigurationError("spec_index out of range")
            self.spec_index = idx.copy()
        self._speed_tables = np.stack(
            [
                np.asarray(s.dvfs.speed(np.arange(s.num_levels)), dtype=np.float64)
                for s in self.specs
            ]
        )
        self.num_nodes = int(num_nodes)
        self.level = np.full(num_nodes, spec.top_level, dtype=np.int64)
        self.cpu_util = np.zeros(num_nodes, dtype=np.float64)
        self.mem_frac = np.full(num_nodes, IDLE_MEM_FRACTION, dtype=np.float64)
        self.nic_frac = np.zeros(num_nodes, dtype=np.float64)
        self.job_id = np.full(num_nodes, -1, dtype=np.int64)
        self.controllable = np.ones(num_nodes, dtype=bool)

    @property
    def is_heterogeneous(self) -> bool:
        """Whether more than one node type is present."""
        return len(self.specs) > 1

    def spec_of(self, node_id: int) -> NodeSpec:
        """The hardware spec of one node."""
        self._check_node(node_id)
        return self.specs[int(self.spec_index[node_id])]

    def speed_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Relative compute speed of the given nodes at their current
        levels (``f/f_max`` of each node's own ladder)."""
        ids = np.asarray(node_ids, dtype=np.int64)
        return self._speed_tables[self.spec_index[ids], self.level[ids]]

    # ------------------------------------------------------------------
    # DVFS level mutation
    # ------------------------------------------------------------------
    def set_level(self, node_id: int, level: int) -> None:
        """Set one node's DVFS level (validated)."""
        self._check_node(node_id)
        self.spec.dvfs._check_level(int(level))
        self.level[node_id] = int(level)

    def set_levels(self, node_ids: np.ndarray, levels: np.ndarray | int) -> None:
        """Vectorised level assignment for a set of nodes (validated)."""
        ids = np.asarray(node_ids, dtype=np.int64)
        if outside_range(ids, self.num_nodes - 1):
            raise ConfigurationError("node id out of range in set_levels")
        lv = np.asarray(levels, dtype=np.int64)
        if lv.shape != ids.shape:
            lv = np.broadcast_to(lv, ids.shape)
        if outside_range(lv, self._top_level):
            raise ConfigurationError("DVFS level out of range in set_levels")
        self.level[ids] = lv

    # ------------------------------------------------------------------
    # Load / occupancy mutation (driven by the workload engine)
    # ------------------------------------------------------------------
    def assign_job(self, node_ids: np.ndarray, job_id: int) -> None:
        """Mark ``node_ids`` as occupied by ``job_id``.

        Raises:
            ConfigurationError: if any node is already occupied.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        if np.any(self.job_id[ids] >= 0):
            raise ConfigurationError("assign_job over an occupied node")
        self.job_id[ids] = int(job_id)

    def release_job(self, node_ids: np.ndarray) -> None:
        """Return ``node_ids`` to the idle pool and zero their load."""
        ids = np.asarray(node_ids, dtype=np.int64)
        self.job_id[ids] = -1
        self.cpu_util[ids] = 0.0
        self.mem_frac[ids] = IDLE_MEM_FRACTION
        self.nic_frac[ids] = 0.0

    def set_load(
        self,
        node_ids: np.ndarray,
        cpu_util: float | np.ndarray,
        mem_frac: float | np.ndarray,
        nic_frac: float | np.ndarray,
    ) -> None:
        """Set the operating point of a set of nodes (clipped to [0, 1]).

        Uses the fmin/fmax ufuncs directly — the vector engine calls this
        once per tick for every running node at once, and the
        ``np.clip`` dispatch wrapper is measurable there.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        self.cpu_util[ids] = np.fmin(np.fmax(cpu_util, 0.0), 1.0)
        self.mem_frac[ids] = np.fmin(np.fmax(mem_frac, 0.0), 1.0)
        self.nic_frac[ids] = np.fmin(np.fmax(nic_frac, 0.0), 1.0)

    def set_privileged(self, node_ids: np.ndarray, privileged: bool = True) -> None:
        """Mark nodes as privileged (uncontrollable) or controllable
        (validated)."""
        ids = np.asarray(node_ids, dtype=np.int64)
        if outside_range(ids, self.num_nodes - 1):
            raise ConfigurationError("node id out of range in set_privileged")
        self.controllable[ids] = not privileged

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def idle_mask(self) -> np.ndarray:
        """Boolean mask of nodes not running any job."""
        return self.job_id < 0

    def busy_mask(self) -> np.ndarray:
        """Boolean mask of nodes occupied by a job."""
        return self.job_id >= 0

    def idle_nodes(self) -> np.ndarray:
        """Ids of idle nodes, ascending."""
        return np.flatnonzero(self.job_id < 0).astype(np.int64)

    def nodes_of_job(self, job_id: int) -> np.ndarray:
        """Ids of the nodes running ``job_id`` (may be empty)."""
        return np.flatnonzero(self.job_id == int(job_id)).astype(np.int64)

    def running_job_ids(self) -> np.ndarray:
        """Distinct job ids currently occupying nodes, ascending."""
        occupied = self.job_id[self.job_id >= 0]
        return np.unique(occupied)

    def theoretical_max_power(self) -> float:
        """``P_thy = Σ_i P_i``: every node flat-out at the top level."""
        per_spec = np.asarray([s.max_power() for s in self.specs])
        return float(per_spec[self.spec_index].sum())

    def copy(self) -> "ClusterState":
        """Deep copy (used by what-if evaluation in policies and tests)."""
        clone = ClusterState.__new__(ClusterState)
        clone.spec = self.spec
        clone._top_level = self._top_level
        clone.specs = list(self.specs)
        clone.spec_index = self.spec_index.copy()
        clone._speed_tables = self._speed_tables
        clone.num_nodes = self.num_nodes
        clone.level = self.level.copy()
        clone.cpu_util = self.cpu_util.copy()
        clone.mem_frac = self.mem_frac.copy()
        clone.nic_frac = self.nic_frac.copy()
        clone.job_id = self.job_id.copy()
        clone.controllable = self.controllable.copy()
        return clone

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.num_nodes:
            raise ConfigurationError(
                f"node id {node_id} outside [0, {self.num_nodes - 1}]"
            )
