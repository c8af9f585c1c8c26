"""Execution engines for the per-cycle hot path.

The simulator's per-cycle work — stepping running jobs, sweeping the
profiling agents, applying Formula (1) and aggregating per-job power —
can be carried out two ways:

* the **vector** engine (:mod:`repro.cluster.vector`), the production
  path: structure-of-arrays batches over flat numpy arrays, no Python
  loop ever touches an individual node;
* the **object** engine (:mod:`repro.cluster.object_engine`), the
  paper-literal reference: one Python step per node, exactly as §V.A
  describes the per-node profiling agents and the per-node application
  of Formula (1).

Both implement :class:`ClusterEngine` and are **bit-identical**: the
same seeded scenario produces the same decision trace, metrics and
journal records on either engine.  The differential equivalence harness
(``tests/equivalence/``) enforces that promise; the contract that makes
it achievable is

1. every floating-point reduction over nodes goes through
   :func:`canonical_power_sum` (ascending node id, pairwise), and
2. every kernel preserves the scalar operation *association order* of
   its twin (IEEE-754 addition is not associative, so ``a + b + c``
   must be bracketed identically on both paths).

Select an engine with ``engine="vector"`` / ``engine="object"`` on
:class:`~repro.cluster.cluster.Cluster`,
:class:`~repro.experiments.common.ExperimentConfig` or the CLI's
``--engine`` flag.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.cluster.state import ClusterState
    from repro.power.estimator import JobPowerTable
    from repro.power.model import PowerModel
    from repro.workload.executor import LoadModulation, RunningJobTable, StepBlock
    from repro.workload.job import Job

__all__ = [
    "ClusterEngine",
    "available_engines",
    "canonical_power_sum",
    "canonical_power_sums",
    "get_engine",
]

#: The engine every entry point defaults to.
DEFAULT_ENGINE = "vector"


def canonical_power_sum(
    values: np.ndarray, node_ids: np.ndarray | None = None
) -> float:
    """Sum per-node watts in the canonical order: ascending node id.

    IEEE-754 addition is not associative, so the *order* in which
    per-node power is accumulated is part of the result's bit pattern.
    Both engines therefore reduce through this single function: values
    are re-ordered by ascending node id (a stable sort, so aligned
    inputs that are already ascending — every snapshot and state array
    in the repo — are summed unchanged) and reduced with numpy's
    pairwise summation.

    Args:
        values: Per-node watts.
        node_ids: The node id owning each entry; ``None`` asserts the
            values are already in ascending-node-id order.

    Returns:
        The total, as a Python float.
    """
    vals = np.asarray(values, dtype=np.float64)
    if node_ids is not None:
        ids = np.asarray(node_ids, dtype=np.int64)
        if ids.shape != vals.shape:
            raise ConfigurationError(
                "canonical_power_sum: node_ids misaligned with values"
            )
        order = np.argsort(ids, kind="stable")
        vals = vals[order]
    # ``add.reduce`` is the pairwise reduction ``np.sum`` dispatches to,
    # without its Python wrapper.
    return float(np.add.reduce(vals))


def canonical_power_sums(rows: np.ndarray) -> np.ndarray:
    """:func:`canonical_power_sum` of each row of a ``(ticks, N)`` array
    whose columns are in ascending node id: one total per tick.

    numpy reduces every row of a C-contiguous array along its last axis
    with the pairwise summation ``np.sum`` applies to that row alone, so
    each total is the row's :func:`canonical_power_sum` bit for bit
    (``tests/equivalence/test_block_numpy.py`` pins this).
    """
    return np.ascontiguousarray(rows, dtype=np.float64).sum(axis=1)


class ClusterEngine(abc.ABC):
    """The per-cycle hot-path kernels, swappable as one unit.

    An engine is stateless: every kernel receives the state (and RNG)
    it operates on, so one engine instance may be shared by a cluster,
    its executor, collector and estimator simultaneously.
    """

    #: Registry name; set by subclasses.
    name: str = ""

    # -- telemetry -----------------------------------------------------
    @abc.abstractmethod
    def sample_telemetry(
        self, state: ClusterState, node_ids: np.ndarray, now: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One sweep of the profiling agents over ``node_ids``.

        Returns ``(level, cpu_util, mem_frac, nic_frac, job_id)``
        arrays aligned with ``node_ids``; all arrays are fresh copies.
        """

    # -- Formula (1) estimation ----------------------------------------
    @abc.abstractmethod
    def estimate_node_power(
        self,
        model: PowerModel,
        level: np.ndarray,
        cpu_util: np.ndarray,
        mem_frac: np.ndarray,
        nic_frac: np.ndarray,
        node_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Formula (1) over sampled operating points, watts per entry.

        ``node_ids`` identifies which node each sample came from; it is
        required on heterogeneous clusters.
        """

    def estimate_savings(
        self,
        model: PowerModel,
        level: np.ndarray,
        cpu_util: np.ndarray,
        mem_frac: np.ndarray,
        nic_frac: np.ndarray,
        node_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Watts each entry would save if degraded one level, ``P − P'``.

        Shared between engines: the subtraction is element-wise, so the
        result is bit-identical as long as both
        :meth:`estimate_node_power` calls are.
        """
        lv = np.asarray(level, dtype=np.int64)
        current = self.estimate_node_power(
            model, lv, cpu_util, mem_frac, nic_frac, node_ids
        )
        lower = self.estimate_node_power(
            model, np.maximum(lv - 1, 0), cpu_util, mem_frac, nic_frac, node_ids
        )
        return current - lower

    # -- per-job aggregation -------------------------------------------
    @abc.abstractmethod
    def aggregate_by_job(
        self, job_id: np.ndarray, values: np.ndarray
    ) -> JobPowerTable:
        """Sum ``values`` over nodes grouped by job id (idle excluded).

        Entries arrive in snapshot order (ascending node id); each
        job's sum accumulates its entries left to right in that order
        on both engines, and the output table lists jobs ascending.
        """

    # -- workload stepping ---------------------------------------------
    @abc.abstractmethod
    def step_jobs(
        self,
        state: ClusterState,
        jobs: list[Job],
        now: np.ndarray,
        dt: float,
        rng: np.random.Generator,
        util_jitter_std: float,
        node_noise_std: float,
        modulation: LoadModulation,
        table: RunningJobTable | None = None,
    ) -> StepBlock:
        """Advance every job in ``jobs`` (all RUNNING) tick by tick.

        ``now`` holds the start time of each tick of a block of
        consecutive ticks.  An engine steps at least the first tick,
        and ends the block after the first tick in which a job
        finishes; it may end it earlier.  The returned
        :class:`~repro.workload.executor.StepBlock` says how far it got.
        Each tick steps ``modulation`` once and then every job: it
        mutates job progress and the cluster state's load arrays, and
        consumes the RNG in the same order on both engines — the
        modulation's innovation, then job by job one shared jitter draw
        and one noise draw per node.  ``table`` is the executor's cached
        :class:`~repro.workload.executor.RunningJobTable` for ``jobs``;
        an engine may step from it instead of re-deriving the per-job
        constants.
        """


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_INSTANCES: dict[str, ClusterEngine] = {}


def _build(name: str) -> ClusterEngine:
    # Lazy imports: the concrete engines import power/workload modules
    # that themselves depend on this module.
    if name == "vector":
        from repro.cluster.vector import VectorEngine

        return VectorEngine()
    if name == "object":
        from repro.cluster.object_engine import ObjectEngine

        return ObjectEngine()
    raise ConfigurationError(
        f"unknown engine {name!r}; available: {', '.join(available_engines())}"
    )


def available_engines() -> list[str]:
    """Engine names accepted by :func:`get_engine`, sorted."""
    return ["object", "vector"]


def get_engine(engine: ClusterEngine | str | None = None) -> ClusterEngine:
    """Resolve an engine selector to a shared engine instance.

    Args:
        engine: An engine instance (returned as-is), a registry name,
            or ``None`` for the default (``"vector"``).
    """
    if isinstance(engine, ClusterEngine):
        return engine
    name = DEFAULT_ENGINE if engine is None else str(engine)
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _build(name)
        _INSTANCES[name] = instance
    return instance
