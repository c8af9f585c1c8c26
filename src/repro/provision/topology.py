"""The power-delivery topology: feeds → per-rack branches.

The paper provisions one scalar capability ``P_Max`` (§II.D); real
delivery is a *hierarchy* of rated stages, each of which can fail
independently:

.. code-block:: text

    utility feed A ─┐
                    ├─► PDU/breaker rack 0 ─► nodes 0..k-1
    utility feed B ─┘   PDU/breaker rack 1 ─► nodes k..2k-1
                        ...

:class:`PowerTopology` is the frozen description of that hierarchy:
redundant utility feeds with individual capacities and per-rack branch
circuits (PDU + breaker) with a shared rating, nodes mapped to racks in
contiguous blocks.  Like
:class:`~repro.power.supply.PowerProvision` it is pure configuration —
the mutable live state (which feeds are up, which breakers have tripped)
lives in :class:`~repro.provision.runtime.ProvisionRuntime`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import ConfigurationError

__all__ = ["PowerTopology"]

#: Redundant utility feeds :meth:`PowerTopology.for_cluster` sizes.
FEEDS = 2
#: The feeds' joint margin over ``P_thy``, as a fraction of it: losing
#: one of the two feeds leaves 60% of ``P_thy``.
FEED_HEADROOM = 0.2


@dataclass(frozen=True)
class PowerTopology:
    """Rated capacities of every stage of the delivery path.

    Args:
        feed_capacities_w: Deliverable watts of each utility feed; the
            healthy global capacity is their sum.
        branch_rated_w: Continuous rating of each rack's branch circuit
            (its PDU and breaker share this rating), watts.
        nodes_per_rack: Nodes per branch circuit; nodes are mapped to
            racks in contiguous id blocks, the last rack may be short.
        num_nodes: Total node count (fixes the rack count).
    """

    feed_capacities_w: tuple[float, ...]
    branch_rated_w: float
    nodes_per_rack: int
    num_nodes: int

    def __post_init__(self) -> None:
        if not self.feed_capacities_w:
            raise ConfigurationError("topology needs at least one utility feed")
        if any(c <= 0 for c in self.feed_capacities_w):
            raise ConfigurationError("feed capacities must be positive")
        if self.branch_rated_w <= 0:
            raise ConfigurationError("branch rating must be positive")
        if self.nodes_per_rack < 1:
            raise ConfigurationError("nodes_per_rack must be >= 1")
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_feeds(self) -> int:
        """Number of utility feeds."""
        return len(self.feed_capacities_w)

    @property
    def num_racks(self) -> int:
        """Number of rack branch circuits."""
        return -(-self.num_nodes // self.nodes_per_rack)

    def rack_index(self) -> np.ndarray:
        """Node id → rack id, shape (num_nodes,)."""
        return np.arange(self.num_nodes, dtype=np.int64) // self.nodes_per_rack

    def rack_nodes(self, rack: int) -> np.ndarray:
        """Node ids on one rack's branch, ascending."""
        if not 0 <= rack < self.num_racks:
            raise ConfigurationError(
                f"rack {rack} outside [0, {self.num_racks - 1}]"
            )
        lo = rack * self.nodes_per_rack
        hi = min(lo + self.nodes_per_rack, self.num_nodes)
        return np.arange(lo, hi, dtype=np.int64)

    # ------------------------------------------------------------------
    # Capacities
    # ------------------------------------------------------------------
    @property
    def design_capacity_w(self) -> float:
        """Healthy global capacity: the sum of every feed's, watts."""
        return float(sum(self.feed_capacities_w))

    def surviving_capacity_w(self, feed_live: np.ndarray) -> float:
        """Global capacity given the live-feed mask, watts."""
        live = np.asarray(feed_live, dtype=bool)
        if live.shape != (self.num_feeds,):
            raise ConfigurationError("feed_live mask shape mismatch")
        caps = np.asarray(self.feed_capacities_w, dtype=np.float64)
        return float(caps[live].sum())

    def branch_ratings_w(self) -> np.ndarray:
        """Per-rack branch rating, shape (num_racks,), watts."""
        return np.full(self.num_racks, float(self.branch_rated_w))

    # ------------------------------------------------------------------
    # Construction and validation against a cluster
    # ------------------------------------------------------------------
    @classmethod
    def for_cluster(
        cls,
        cluster: Cluster,
        nodes_per_rack: int = 8,
        rack_headroom: float = 0.25,
    ) -> "PowerTopology":
        """Size a topology for a cluster from headroom fractions.

        The :data:`FEEDS` feeds jointly deliver ``(1 +`` :data:`FEED_HEADROOM`
        ``) · P_thy`` split evenly, and each branch is rated at
        ``(1 + rack_headroom)`` times its rack's flat-out maximum.  A
        *negative* ``rack_headroom`` deliberately under-provisions the
        branches (the ``breaker-stress`` scenario).

        Args:
            cluster: The machine the topology feeds.
            nodes_per_rack: Branch-circuit granularity.
            rack_headroom: Fractional branch margin over the rack's
                theoretical maximum draw (may be negative, > −1).
        """
        if rack_headroom <= -1.0:
            raise ConfigurationError("rack_headroom must exceed -1")
        state = cluster.state
        node_max = np.asarray([s.max_power() for s in state.specs])[
            state.spec_index
        ]
        num_nodes = state.num_nodes
        rack_of = np.arange(num_nodes, dtype=np.int64) // int(nodes_per_rack)
        rack_max = np.bincount(rack_of, weights=node_max)
        per_feed = (
            (1.0 + FEED_HEADROOM) * float(node_max.sum()) / float(FEEDS)
        )
        return cls(
            feed_capacities_w=tuple([per_feed] * FEEDS),
            branch_rated_w=(1.0 + rack_headroom) * float(rack_max.max()),
            nodes_per_rack=int(nodes_per_rack),
            num_nodes=num_nodes,
        )

    def branch_floor_w(self, cluster: Cluster) -> np.ndarray:
        """Worst-case per-rack power with every controllable node at its
        idle floor and privileged nodes saturated — what a branch-level
        red response can guarantee, watts, shape (num_racks,)."""
        state = cluster.state
        if state.num_nodes != self.num_nodes:
            raise ConfigurationError("topology does not match the cluster size")
        mins = np.asarray([s.min_power() for s in state.specs])[state.spec_index]
        maxs = np.asarray([s.max_power() for s in state.specs])[state.spec_index]
        floor = np.where(state.controllable, mins, maxs)
        return np.bincount(
            self.rack_index(), weights=floor, minlength=self.num_racks
        )

    def check_assumptions(self, cluster: Cluster) -> None:
        """Raise :class:`ConfigurationError` if any branch is beyond help.

        Branch controllability: each rack's throttled floor must stay
        below its branch rating, otherwise no capping response could
        ever keep that breaker closed and the defense's no-trip
        guarantee is void from the start.
        """
        floors = self.branch_floor_w(cluster)
        worst = int(np.argmax(floors))
        if float(floors[worst]) >= self.branch_rated_w:
            raise ConfigurationError(
                f"branch controllability violated: rack {worst} draws "
                f"{float(floors[worst]):.0f} W even fully throttled, at or "
                f"above its branch rating {self.branch_rated_w:.0f} W"
            )
