"""Figure 5: scalability of the global manager.

The paper plots the CPU utilisation of the central management node
against ``|A_candidate|`` and observes nonlinear growth — the argument
for monitoring only a subset of nodes.  This harness produces the curve
two ways:

1. **modelled** — the calibrated cost model
   (:func:`~repro.telemetry.cost.cpu_utilization`) evaluated at each
   size (the figure's curve);
2. **measured** — the wall-clock time our own collector + estimator +
   policy-ranking pipeline takes per control cycle at each size, on a
   synthetic fully-busy cluster.  This grounds the model in a real
   implementation; the benchmark suite records it with pytest-benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.policies.base import PolicyContext, make_policy
from repro.core.sets import NodeSets
from repro.core.thresholds import PowerThresholds
from repro.errors import ConfigurationError
from repro.power.estimator import NodePowerEstimator
from repro.power.model import PowerModel
from repro.sim.random import RandomSource
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.cost import cpu_utilization

__all__ = ["Fig5Result", "run_fig5", "measure_collection_cycle_s"]

#: The candidate sizes the harness sweeps by default.
DEFAULT_SIZES: tuple[int, ...] = (0, 8, 16, 32, 48, 64, 96, 128)


@dataclass(frozen=True)
class Fig5Result:
    """The Figure 5 curve.

    Attributes:
        sizes: Candidate-set sizes (x-axis).
        modelled_cpu: Modelled management-node CPU utilisation per size.
        measured_cycle_s: Measured wall-seconds of one collection +
            estimation + ranking cycle of this implementation per size
            (None entries when measurement was skipped).
    """

    sizes: np.ndarray
    modelled_cpu: np.ndarray
    measured_cycle_s: np.ndarray | None

    def nonlinearity(self) -> float:
        """Per-node cost at the largest size over that at the smallest
        non-zero size — > 1 means superlinear growth (the figure's point).
        """
        nz = self.sizes > 0
        sizes = self.sizes[nz]
        cpu = self.modelled_cpu[nz]
        if len(sizes) < 2:
            raise ConfigurationError("need >= 2 non-zero sizes")
        return float((cpu[-1] / sizes[-1]) / (cpu[0] / sizes[0]))


def _busy_cluster(num_nodes: int) -> Cluster:
    """A fully-busy synthetic cluster: one 8-node job per 8-node block."""
    cluster = Cluster.tianhe_1a(num_nodes=num_nodes)
    state = cluster.state
    rng = RandomSource(seed=42).stream("experiments.fig5.busy_cluster")
    for start in range(0, num_nodes, 8):
        ids = np.arange(start, min(start + 8, num_nodes))
        state.assign_job(ids, start // 8)
        state.set_load(
            ids,
            cpu_util=rng.uniform(0.5, 1.0),
            mem_frac=rng.uniform(0.2, 0.6),
            nic_frac=rng.uniform(0.0, 0.4),
        )
    return cluster


def measure_collection_cycle_s(
    size: int, num_nodes: int = 128, repetitions: int = 50
) -> float:
    """Median wall-seconds of one full monitoring cycle at ``size``.

    One cycle = telemetry sweep + per-node Formula (1) estimation +
    per-job aggregation + MPC ranking, i.e. the management node's work.
    """
    if size == 0:
        return 0.0
    cluster = _busy_cluster(num_nodes)
    sets = NodeSets.select(cluster, size)
    collector = TelemetryCollector(cluster.state, sets.candidates)
    estimator = NodePowerEstimator(PowerModel(cluster.spec))
    policy = make_policy("mpc")
    thresholds = PowerThresholds(p_low=1.0, p_high=2.0)
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        snapshot = collector.collect(now=0.0)
        ctx = PolicyContext(snapshot, collector.previous, estimator, 10.0, thresholds)
        policy.select(ctx)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def run_fig5(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    measure: bool = True,
    num_nodes: int = 128,
) -> Fig5Result:
    """Produce the Figure 5 curve.

    Args:
        sizes: Candidate-set sizes to sweep (must be within the cluster).
        measure: Also measure this implementation's per-cycle cost.
        num_nodes: Cluster size for the measured path.
    """
    if any(s < 0 or s > num_nodes for s in sizes):
        raise ConfigurationError("sizes must lie within [0, num_nodes]")
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    modelled = np.asarray(cpu_utilization(sizes_arr), dtype=np.float64)
    measured = None
    if measure:
        measured = np.asarray(
            [measure_collection_cycle_s(int(s), num_nodes) for s in sizes_arr]
        )
    return Fig5Result(
        sizes=sizes_arr, modelled_cpu=modelled, measured_cycle_s=measured
    )
