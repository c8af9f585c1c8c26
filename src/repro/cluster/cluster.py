"""The ``Cluster`` facade: spec + live state + capacity queries.

A :class:`Cluster` is the object most user code touches: examples build
one with :meth:`Cluster.tianhe_1a`, hand it to a scheduler and a power
manager, and run.  It deliberately owns no behaviour of its own beyond
capacity arithmetic — workload execution lives in :mod:`repro.workload`,
power evaluation in :mod:`repro.power` and control in :mod:`repro.core` —
so each can be tested in isolation against a bare cluster.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.engine import ClusterEngine, get_engine
from repro.cluster.node import NodeSpec
from repro.cluster.state import ClusterState, outside_range
from repro.errors import ConfigurationError

__all__ = ["Cluster"]


class Cluster:
    """A homogeneous cluster of ``num_nodes`` identical nodes.

    Args:
        spec: Hardware specification shared by every node.
        num_nodes: Node count (the paper's environment has 128).
        name: Label used in reports.
        engine: Hot-path engine preference (instance, registry name, or
            ``None`` for the default vector engine); components built
            around this cluster inherit it.
    """

    def __init__(
        self,
        spec: NodeSpec,
        num_nodes: int,
        name: str = "cluster",
        engine: ClusterEngine | str | None = None,
    ) -> None:
        self.spec = spec
        self.name = name
        self.state = ClusterState(spec, num_nodes)
        self.engine = get_engine(engine)

    @classmethod
    def tianhe_1a(
        cls, num_nodes: int = 128, engine: ClusterEngine | str | None = None
    ) -> "Cluster":
        """The paper's experiment environment: 128 Tianhe-1A blades."""
        return cls(
            NodeSpec.tianhe_1a(), num_nodes, name="tianhe-1a-variant", engine=engine
        )

    @classmethod
    def heterogeneous(
        cls,
        groups: list[tuple[NodeSpec, int]],
        name: str = "hetero-cluster",
        engine: ClusterEngine | str | None = None,
    ) -> "Cluster":
        """A cluster mixing several node types.

        The paper notes its capping algorithm "is applicable to both
        heterogeneous and homogeneous systems as far as the power states
        of a node are discrete"; this constructor builds such a machine.
        Node ids are assigned group by group in the given order.

        Constraints (validated): all types must share the DVFS ladder
        depth (levels stay comparable cluster-wide, as Algorithm 1
        assumes) and the core count (the whole-node allocator sizes
        requests in nodes).

        Args:
            groups: ``(spec, count)`` pairs, count >= 1 each.
            name: Cluster label.
        """
        if not groups:
            raise ConfigurationError("need at least one node group")
        specs = [spec for spec, _ in groups]
        counts = [count for _, count in groups]
        if any(c < 1 for c in counts):
            raise ConfigurationError("every group needs at least one node")
        primary = specs[0]
        for spec in specs[1:]:
            if spec.num_levels != primary.num_levels:
                raise ConfigurationError(
                    "heterogeneous node types must share the DVFS ladder depth"
                )
            if spec.cores != primary.cores:
                raise ConfigurationError(
                    "heterogeneous node types must share the core count "
                    "(whole-node allocation sizes requests in nodes)"
                )
        num_nodes = sum(counts)
        spec_index = np.concatenate(
            [np.full(count, k, dtype=np.int64) for k, count in enumerate(counts)]
        )
        cluster = cls.__new__(cls)
        cluster.spec = primary
        cluster.name = name
        cluster.state = ClusterState(
            primary, num_nodes, specs=specs, spec_index=spec_index
        )
        cluster.engine = get_engine(engine)
        return cluster

    @property
    def is_heterogeneous(self) -> bool:
        """Whether the cluster mixes node types."""
        return self.state.is_heterogeneous

    def spec_of(self, node_id: int) -> NodeSpec:
        """The hardware spec of one node."""
        return self.state.spec_of(node_id)

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of compute nodes."""
        return self.state.num_nodes

    @property
    def cores_per_node(self) -> int:
        """Cores of one node."""
        return self.spec.cores

    @property
    def total_cores(self) -> int:
        """Aggregate core count of the cluster."""
        return self.num_nodes * self.spec.cores

    def nodes_for_processes(self, nprocs: int) -> int:
        """Number of whole nodes needed to host ``nprocs`` MPI processes.

        The paper's launcher places one process per core and allocates
        whole nodes, so a 256-process job on 12-core nodes takes 22 nodes.
        """
        if nprocs < 1:
            raise ConfigurationError("a job needs at least one process")
        return -(-nprocs // self.cores_per_node)  # ceil division

    # ------------------------------------------------------------------
    # Power bounds
    # ------------------------------------------------------------------
    def theoretical_max_power(self) -> float:
        """``P_thy``: all nodes saturated at the top DVFS level, watts."""
        return self.state.theoretical_max_power()

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def set_privileged_nodes(self, node_ids: np.ndarray | list[int]) -> None:
        """Declare the privileged (uncontrollable) set ``A_uncontrollable``.

        Replaces any previous privileged marking.

        Raises:
            ConfigurationError: on a node id outside the cluster; the
                previous marking is then left as it was.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        if outside_range(ids, self.num_nodes - 1):
            raise ConfigurationError("privileged node id out of range")
        self.state.controllable[:] = True
        if ids.size:
            self.state.set_privileged(ids, privileged=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cluster {self.name!r} nodes={self.num_nodes}>"
