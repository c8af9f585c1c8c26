"""Per-node and per-job power estimation from telemetry samples.

# reprolint: hot-path

The global power manager never reads ground truth: it sees the operating
points ``(l, u, m, d)`` the profiling agents sampled (possibly stale by up
to one sampling interval) and applies Formula (1) — exactly the paper's
design, where agents derive the model inputs from ``/proc`` and the NIC
chipset log.

Besides raw per-node estimates this module computes the per-*job*
aggregates the selection policies rank on:

* ``Power(J) = Σ_{x ∈ Nodes(J)} P(x)``  (state-based policies), and
* per-job one-level degradation savings (MPC-C / BFP).

The kernels are carried out by a
:class:`~repro.cluster.engine.ClusterEngine`: the default vector engine
evaluates Formula (1) as fused array arithmetic and aggregates with
``numpy.bincount``; the object engine applies the formula one node at a
time, exactly as the paper narrates, with bit-identical results.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.engine import ClusterEngine, get_engine
from repro.power.model import PowerModel

__all__ = ["NodePowerEstimator", "JobPowerTable"]


class JobPowerTable:
    """Per-job power aggregates for one telemetry snapshot.

    Attributes:
        job_ids: Distinct job ids present, ascending (shape J).
        power_w: Estimated ``Power(J)`` per job, watts (shape J).
        node_counts: Number of sampled nodes per job (shape J).
    """

    __slots__ = ("job_ids", "power_w", "node_counts", "_index")

    def __init__(
        self, job_ids: np.ndarray, power_w: np.ndarray, node_counts: np.ndarray
    ) -> None:
        self.job_ids = job_ids
        self.power_w = power_w
        self.node_counts = node_counts
        #: Job id → row, built on the first lookup by id (rankings by
        #: power never need it).
        self._index: dict[int, int] | None = None

    def _rows(self) -> dict[int, int]:
        if self._index is None:
            self._index = {int(j): k for k, j in enumerate(self.job_ids)}
        return self._index

    def __len__(self) -> int:
        return len(self.job_ids)

    def __contains__(self, job_id: int) -> bool:
        return int(job_id) in self._rows()

    def power_of(self, job_id: int) -> float:
        """``Power(J)`` for one job, watts.  KeyError if absent."""
        return float(self.power_w[self._rows()[int(job_id)]])

    def sorted_by_power(self, descending: bool = True) -> np.ndarray:
        """Job ids ordered by estimated power.

        The order is a stable ascending sort by power, reversed when
        ``descending``: equal powers rank by ascending job id in the
        ascending order and by descending job id in the descending one.
        """
        order = self.power_w.argsort(kind="stable")
        if descending:
            order = order[::-1]
        return self.job_ids[order]


#: Job ids that span more than this many bins per aggregated entry are
#: numbered densely first, so a snapshot of a few widely spread ids
#: never allocates one bin per id in between.
_BINS_PER_ENTRY = 4


class NodePowerEstimator:
    """Applies Formula (1) to sampled operating points.

    Args:
        model: The power profile model (shared with the simulator ground
            truth; see :mod:`repro.power.model` for why that is faithful
            to the paper).
        engine: Hot-path engine evaluating the kernels (instance,
            registry name, or ``None`` for the default vector engine).
    """

    def __init__(
        self, model: PowerModel, engine: ClusterEngine | str | None = None
    ) -> None:
        self._model = model
        self._engine = get_engine(engine)

    @property
    def model(self) -> PowerModel:
        """The underlying Formula (1) evaluator."""
        return self._model

    @property
    def engine(self) -> ClusterEngine:
        """The hot-path engine evaluating this estimator's kernels."""
        return self._engine

    # ------------------------------------------------------------------
    # Per-node estimation
    # ------------------------------------------------------------------
    def estimate_nodes(
        self,
        level: np.ndarray,
        cpu_util: np.ndarray,
        mem_frac: np.ndarray,
        nic_frac: np.ndarray,
        node_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Estimated power of each sampled node, watts.

        ``node_ids`` identifies which node each sample came from; it is
        required on heterogeneous clusters (a level means different
        watts per node type) and ignored by the homogeneous model.
        """
        return self._engine.estimate_node_power(
            self._model, level, cpu_util, mem_frac, nic_frac, node_ids
        )

    def estimate_savings(
        self,
        level: np.ndarray,
        cpu_util: np.ndarray,
        mem_frac: np.ndarray,
        nic_frac: np.ndarray,
        node_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Watts each node would save if degraded one level, ``P − P'``.

        Zero for nodes already at the lowest level.  ``node_ids`` as in
        :meth:`estimate_nodes`.
        """
        return self._engine.estimate_savings(
            self._model, level, cpu_util, mem_frac, nic_frac, node_ids
        )

    # ------------------------------------------------------------------
    # Per-job aggregation
    # ------------------------------------------------------------------
    @staticmethod
    def aggregate_by_job(job_id: np.ndarray, values: np.ndarray) -> JobPowerTable:
        """Sum ``values`` over nodes grouped by job id.

        Nodes with ``job_id < 0`` (idle) are excluded — the paper defines
        ``Nodes(J)`` as the *non-idle* candidate nodes of a job, and a
        valid policy never targets idle nodes.
        """
        jid = np.asarray(job_id, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        mask = jid >= 0
        jid = jid[mask]
        vals = vals[mask]
        if jid.size == 0:
            empty_i = np.empty(0, dtype=np.int64)
            return JobPowerTable(empty_i, np.empty(0, dtype=np.float64), empty_i)
        # ``bincount`` adds each bin's weights left to right in input
        # order, so every sum is bit for bit the object engine's.  Bins
        # are the ids less the smallest, unless the ids spread too far
        # for that; then each distinct id gets one.
        low = jid.min()
        bins = jid - low
        if bins.max() < _BINS_PER_ENTRY * jid.size:
            counts = np.bincount(bins)
            present = np.flatnonzero(counts)
            sums = np.bincount(bins, weights=vals)
            return JobPowerTable(present + low, sums[present], counts[present])
        uniq, inverse, counts = np.unique(jid, return_inverse=True, return_counts=True)
        sums = np.bincount(inverse, weights=vals, minlength=len(uniq))
        return JobPowerTable(uniq, sums, counts.astype(np.int64))
