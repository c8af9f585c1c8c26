"""The management-cost model behind Figure 5.

Figure 5 of the paper plots the CPU utilisation of the central management
node against the size of the candidate set and observes that it "increases
non-linearly", concluding that monitoring must be restricted to a subset
of nodes.

The cost of one control cycle on the management node decomposes as:

* a **fixed** part ``c0`` — control loop, meter read, threshold logic;
* a **linear** part ``c1·n`` — receiving and unmarshalling one sample per
  monitored node, evaluating Formula (1) per node;
* a **superlinear** part ``c2·n²`` — cross-node work: grouping nodes into
  jobs, ranking jobs against each other, and (on a real network) the
  incast contention of n simultaneous reports at the single collector.

``cpu_utilization(n)`` expresses that cost as a fraction of the
management node's capacity given the control-cycle period.  Defaults are
calibrated so the curve is gently linear below a few dozen nodes and
visibly superlinear by 128, matching the shape of Figure 5; see
EXPERIMENTS.md for the measured curve of our own collector, which the
benchmark suite records alongside the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ManagementCostModel"]


@dataclass(frozen=True)
class ManagementCostModel:
    """CPU cost of central power management vs. candidate-set size.

    Args:
        fixed_ms: Per-cycle fixed cost, milliseconds.
        per_node_ms: Cost per monitored node per cycle, milliseconds.
        pairwise_us: Cross-node (quadratic) coefficient, microseconds per
            node-pair per cycle.
        cycle_period_s: The control-cycle period the utilisation is
            normalised against.
    """

    fixed_ms: float = 5.0
    per_node_ms: float = 0.9
    pairwise_us: float = 18.0
    cycle_period_s: float = 1.0

    def __post_init__(self) -> None:
        if min(self.fixed_ms, self.per_node_ms, self.pairwise_us) < 0:
            raise ConfigurationError("cost coefficients must be non-negative")
        if self.cycle_period_s <= 0:
            raise ConfigurationError("cycle period must be positive")

    def cycle_cost_s(self, num_nodes: int | np.ndarray) -> float | np.ndarray:
        """Management-node CPU time consumed by one cycle, seconds."""
        n = np.asarray(num_nodes, dtype=np.float64)
        if np.any(n < 0):
            raise ConfigurationError("num_nodes must be non-negative")
        cost = (
            self.fixed_ms * 1e-3
            + self.per_node_ms * 1e-3 * n
            + self.pairwise_us * 1e-6 * n * n
        )
        if np.ndim(cost) == 0:
            return float(cost)
        return cost

    def cpu_utilization(self, num_nodes: int | np.ndarray) -> float | np.ndarray:
        """Fraction of the management node's CPU consumed, clamped to 1.

        This is the y-axis of Figure 5.
        """
        cost = np.asarray(self.cycle_cost_s(num_nodes)) / self.cycle_period_s
        clamped = np.minimum(cost, 1.0)
        if np.ndim(clamped) == 0:
            return float(clamped)
        return clamped
