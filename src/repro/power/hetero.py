"""Formula (1) over heterogeneous clusters.

# reprolint: hot-path

:class:`HeterogeneousPowerModel` generalises
:class:`~repro.power.model.PowerModel` to clusters that mix node types
(see :meth:`repro.cluster.cluster.Cluster.heterogeneous`): coefficient
lookup becomes two-dimensional — ``idle[spec_index[i], level[i]]`` — but
remains a pair of vectorised gathers per term, so the hot path stays
loop-free.

Because a level means different watts (and a different frequency) on
different node types, per-node evaluation needs the node's identity; the
shared entry point is :meth:`evaluate_for_nodes`, which both model
classes implement (:class:`PowerModel` simply ignores the ids).  Use
:func:`make_power_model` to get the right implementation for a cluster.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.engine import canonical_power_sum
from repro.cluster.state import ClusterState, outside_range
from repro.errors import ConfigurationError
from repro.power.model import PowerModel

__all__ = ["HeterogeneousPowerModel", "make_power_model"]


class HeterogeneousPowerModel:
    """Formula (1) evaluator for a mixed-type cluster.

    Args:
        state: The cluster state carrying ``specs`` and ``spec_index``.
    """

    def __init__(self, state: ClusterState) -> None:
        self._state_ref = state
        self.spec = state.spec  # primary spec (interface compatibility)
        specs = state.specs
        levels = specs[0].num_levels
        for s in specs[1:]:
            if s.num_levels != levels:
                raise ConfigurationError("specs must share the ladder depth")
        self._idle = np.stack([s.idle_power_per_level for s in specs])
        self._cpu = np.stack([s.cpu_dynamic_per_level for s in specs])
        self._mem = np.stack([s.mem_dynamic_per_level for s in specs])
        self._nic = np.stack([s.nic_dynamic_per_level for s in specs])
        self._spec_index = state.spec_index
        self._top = self.spec.top_level

    # ------------------------------------------------------------------
    # Node-identified evaluation
    # ------------------------------------------------------------------
    def evaluate_for_nodes(
        self,
        node_ids: np.ndarray,
        level: int | np.ndarray,
        cpu_util: float | np.ndarray,
        mem_frac: float | np.ndarray,
        nic_frac: float | np.ndarray,
    ) -> np.ndarray:
        """Formula (1) for specific nodes at explicit operating points.

        ``level`` (and the load terms) broadcast against ``node_ids``;
        a ``(L, 1)`` level array against ``(N,)`` ids yields an
        ``(L, N)`` matrix (used by the budget-partition baseline).
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        lv = np.asarray(level, dtype=np.int64)
        if outside_range(lv, self._top):
            raise ConfigurationError("DVFS level out of range")
        si = self._spec_index[ids]
        power = (
            self._idle[si, lv]
            + cpu_util * self._cpu[si, lv]
            + mem_frac * self._mem[si, lv]
            + nic_frac * self._nic[si, lv]
        )
        return np.asarray(power, dtype=np.float64)

    # ------------------------------------------------------------------
    # Whole-cluster evaluation (same interface as PowerModel)
    # ------------------------------------------------------------------
    def node_power(self, state: ClusterState) -> np.ndarray:
        """Per-node power of every node, watts."""
        si = state.spec_index
        lv = state.level
        return (
            self._idle[si, lv]
            + state.cpu_util * self._cpu[si, lv]
            + state.mem_frac * self._mem[si, lv]
            + state.nic_frac * self._nic[si, lv]
        )

    def system_power(self, state: ClusterState) -> float:
        """Total cluster power, watts (canonical ascending-id order)."""
        return canonical_power_sum(self.node_power(state))


def make_power_model(cluster: Cluster) -> PowerModel | HeterogeneousPowerModel:
    """The right Formula (1) implementation for ``cluster``.

    Homogeneous clusters get the single-spec :class:`PowerModel` (leaner
    lookups); mixed clusters get :class:`HeterogeneousPowerModel`.
    """
    if cluster.is_heterogeneous:
        return HeterogeneousPowerModel(cluster.state)
    return PowerModel(cluster.spec)
