"""The management-cost model behind Figure 5.

Figure 5 of the paper plots the CPU utilisation of the central management
node against the size of the candidate set and observes that it "increases
non-linearly", concluding that monitoring must be restricted to a subset
of nodes.

The cost of one control cycle on the management node decomposes as:

* a **fixed** part ``c0`` (:data:`FIXED_MS`) — control loop, meter read,
  threshold logic;
* a **linear** part ``c1·n`` (:data:`PER_NODE_MS`) — receiving and
  unmarshalling one sample per monitored node, evaluating Formula (1)
  per node;
* a **superlinear** part ``c2·n²`` (:data:`PAIRWISE_US`) — cross-node
  work: grouping nodes into jobs, ranking jobs against each other, and
  (on a real network) the incast contention of n simultaneous reports at
  the single collector.

:func:`cpu_utilization` expresses that cost as a fraction of the
management node's capacity over one control cycle of
:data:`CYCLE_PERIOD_S`.  The coefficients are calibrated so the curve is
gently linear below a few dozen nodes and visibly superlinear by 128,
matching the shape of Figure 5; see EXPERIMENTS.md for the measured
curve of our own collector, which the benchmark suite records alongside
the model.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["cpu_utilization", "cycle_cost_s"]

#: Per-cycle fixed cost, milliseconds.
FIXED_MS = 5.0
#: Cost per monitored node per cycle, milliseconds.
PER_NODE_MS = 0.9
#: Cross-node (quadratic) coefficient, microseconds per node-pair per
#: cycle.
PAIRWISE_US = 18.0
#: The control-cycle period the utilisation is normalised against,
#: seconds.
CYCLE_PERIOD_S = 1.0


def cycle_cost_s(num_nodes: int | np.ndarray) -> float | np.ndarray:
    """Management-node CPU time consumed by one cycle, seconds."""
    n = np.asarray(num_nodes, dtype=np.float64)
    if np.any(n < 0):
        raise ConfigurationError("num_nodes must be non-negative")
    cost = FIXED_MS * 1e-3 + PER_NODE_MS * 1e-3 * n + PAIRWISE_US * 1e-6 * n * n
    if np.ndim(cost) == 0:
        return float(cost)
    return cost


def cpu_utilization(num_nodes: int | np.ndarray) -> float | np.ndarray:
    """Fraction of the management node's CPU consumed, clamped to 1.

    This is the y-axis of Figure 5.
    """
    cost = np.asarray(cycle_cost_s(num_nodes)) / CYCLE_PERIOD_S
    clamped = np.minimum(cost, 1.0)
    if np.ndim(clamped) == 0:
        return float(clamped)
    return clamped
