"""Vectorised implementation of the paper's power profile model (Formula 1).

# reprolint: hot-path

For a node at power state ``l`` with CPU utilisation ``u``, memory
occupancy fraction ``m`` and NIC utilisation fraction ``d``::

    P(l) = P_idle(l) + u · Σ_x P_x(l) + m · P_mem(l) + d · P_NIC(l)

The per-level coefficient vectors come pre-computed from
:class:`~repro.cluster.node.NodeSpec`; evaluating the whole cluster is
four fancy-indexed gathers plus fused arithmetic over flat arrays — the
single hottest operation in the simulator, hence no Python-level loops.

The same class serves two roles:

1. **Ground truth** — the simulator charges each node exactly this power
   (optionally the meter adds sensor noise on top);
2. **Estimation basis** — the profiling agents observe ``(l, u, m, d)``
   and the estimator applies the same formula, as the paper's agents do
   from ``/proc`` counters.  Estimation error then comes from *sampling*
   (staleness, quantisation), not from a mismatched model, mirroring the
   paper's premise that Formula (1) is "accurate enough for power
   management".
"""

from __future__ import annotations

import numpy as np

from repro.cluster.engine import canonical_power_sum
from repro.cluster.node import NodeSpec
from repro.cluster.state import ClusterState
from repro.errors import ConfigurationError

__all__ = ["PowerModel"]


class PowerModel:
    """Formula (1) evaluator for a homogeneous node specification.

    Args:
        spec: The node hardware spec providing per-level coefficients.
    """

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        # Local aliases keep the hot path free of attribute chains.
        self._idle = spec.idle_power_per_level
        self._cpu = spec.cpu_dynamic_per_level
        self._mem = spec.mem_dynamic_per_level
        self._nic = spec.nic_dynamic_per_level
        self._top = spec.top_level

    # ------------------------------------------------------------------
    # Scalar / array evaluation from raw operating points
    # ------------------------------------------------------------------
    def evaluate(
        self,
        level: int | np.ndarray,
        cpu_util: float | np.ndarray,
        mem_frac: float | np.ndarray,
        nic_frac: float | np.ndarray,
    ) -> float | np.ndarray:
        """Apply Formula (1) to explicit operating points.

        All arguments broadcast against each other; levels index the
        coefficient tables.  Returns watts (scalar or array, matching the
        broadcast shape).
        """
        lv = np.asarray(level, dtype=np.int64)
        if lv.size and (lv.min() < 0 or lv.max() > self._top):
            raise ConfigurationError("DVFS level out of range in evaluate()")
        power = (
            self._idle[lv]
            + np.asarray(cpu_util) * self._cpu[lv]
            + np.asarray(mem_frac) * self._mem[lv]
            + np.asarray(nic_frac) * self._nic[lv]
        )
        if power.ndim == 0:
            return float(power)
        return power

    def evaluate_for_nodes(
        self,
        node_ids: np.ndarray,
        level: int | np.ndarray,
        cpu_util: float | np.ndarray,
        mem_frac: float | np.ndarray,
        nic_frac: float | np.ndarray,
    ) -> np.ndarray:
        """Node-identified evaluation (shared interface with the
        heterogeneous model).  On a homogeneous spec the ids only fix
        the broadcast shape: a ``(L, 1)`` level array against ``(N,)``
        ids yields an ``(L, N)`` matrix.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        lv = np.asarray(level, dtype=np.int64)
        if lv.shape != ids.shape:
            lv = np.broadcast_to(lv, np.broadcast_shapes(lv.shape, ids.shape))
        value = self.evaluate(lv, cpu_util, mem_frac, nic_frac)
        return np.asarray(value, dtype=np.float64)

    # ------------------------------------------------------------------
    # Whole-cluster evaluation
    # ------------------------------------------------------------------
    def node_power(self, state: ClusterState) -> np.ndarray:
        """Per-node power of every node in ``state``, watts (length N)."""
        lv = state.level
        return (
            self._idle[lv]
            + state.cpu_util * self._cpu[lv]
            + state.mem_frac * self._mem[lv]
            + state.nic_frac * self._nic[lv]
        )

    def system_power(self, state: ClusterState) -> float:
        """Total cluster power, watts (canonical ascending-id order)."""
        return canonical_power_sum(self.node_power(state))

    # ------------------------------------------------------------------
    # What-if evaluation (used by MPC-C's ``P'(x)`` and BFP)
    # ------------------------------------------------------------------
    def power_at_level(
        self, state: ClusterState, node_ids: np.ndarray, levels: np.ndarray | int
    ) -> np.ndarray:
        """Power the given nodes *would* draw at hypothetical ``levels``.

        Holds the nodes' current load fixed and re-evaluates Formula (1)
        at the proposed DVFS levels — exactly the estimate ``P'(x)``
        Algorithm 2 uses for "power consumption of node x when the power
        budget is decreased by one level".
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        lv = np.broadcast_to(np.asarray(levels, dtype=np.int64), ids.shape)
        lv = np.clip(lv, 0, self.spec.top_level)
        return (
            self._idle[lv]
            + state.cpu_util[ids] * self._cpu[lv]
            + state.mem_frac[ids] * self._mem[lv]
            + state.nic_frac[ids] * self._nic[lv]
        )

    def degrade_savings(self, state: ClusterState, node_ids: np.ndarray) -> np.ndarray:
        """Per-node watts saved by one level of degradation, ``P(x) − P'(x)``.

        Nodes already at the lowest level save exactly zero.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        current = self.power_at_level(state, ids, state.level[ids])
        lower = self.power_at_level(
            state, ids, np.maximum(state.level[ids] - 1, 0)
        )
        return current - lower
