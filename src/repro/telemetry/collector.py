"""The central telemetry collection step.

Each control cycle, the global power manager "collects information about
the runtime behaviors and the power consumptions of all nodes in the
candidate set" (§V.D).  :class:`TelemetryCollector` performs that sweep:
it samples the agent pool, packages the result as an immutable
:class:`TelemetrySnapshot` and remembers the previous snapshot
(change-based policies need ``P^t`` *and* ``P^{t−1}``).

On a real machine agents fail to report: daemons hang, packets drop,
nodes go dark.  The collector therefore keeps a **last-known-good
cache** — one row per monitored node, primed at deploy time — and, when
a :class:`~repro.faults.injector.FaultInjector` marks samples as lost,
substitutes each lost node's cached row instead of crashing or silently
shipping garbage.  Every snapshot then carries two honesty signals
downstream consumers act on: the per-node staleness ``age`` (seconds
since that node last reported) and the sweep's ``coverage`` fraction.
Without an injector the fast path is exactly the original sweep and
every age is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.engine import ClusterEngine
from repro.cluster.state import ClusterState
from repro.errors import TelemetryError
from repro.faults.injector import FaultInjector
from repro.obs.facade import Observability, resolve_obs
from repro.telemetry.agent import AgentPool
from repro.telemetry.integrity import TelemetryValidator

__all__ = ["TelemetrySnapshot", "TelemetryCollector"]


@dataclass(frozen=True)
class TelemetrySnapshot:
    """One cycle's view of every monitored node.

    Arrays are aligned: entry ``k`` of each array describes node
    ``node_ids[k]``.  Every array is read-only once the snapshot exists.
    The per-node readings are copies the snapshot owns (on defended
    sweeps, rows of two arrays it owns); ``node_ids`` (and, on
    fault-free sweeps, the all-zero ``age``) may be a read-only array
    the collector shares between its snapshots.

    ``age`` is the staleness of each entry in seconds: 0 for nodes whose
    agent reported this cycle, the time since the last successful report
    for nodes served from the last-known-good cache (``inf`` if a node
    has never reported).  ``coverage`` is the fraction of monitored
    nodes that reported fresh data this cycle; both default to the
    fault-free values so snapshots built by tests and fault-free runs
    are unchanged.

    **Empty-candidate convention:** when the monitored set itself is
    empty (``size == 0``) coverage is defined as 1.0 — vacuously full.
    A blackout means monitored nodes went dark, not that there is
    nothing to monitor, so downstream coverage-threshold logic (the
    manager's forced-red rung) must stay inert for an empty candidate
    set.
    """

    time: float
    node_ids: np.ndarray
    level: np.ndarray
    cpu_util: np.ndarray
    mem_frac: np.ndarray
    nic_frac: np.ndarray
    job_id: np.ndarray
    age: np.ndarray | None = None
    coverage: float = 1.0

    def __post_init__(self) -> None:
        shape = self.node_ids.shape
        if self.age is None:
            object.__setattr__(self, "age", np.zeros(shape, dtype=np.float64))
        arrays = (
            ("node_ids", self.node_ids),
            ("level", self.level),
            ("cpu_util", self.cpu_util),
            ("mem_frac", self.mem_frac),
            ("nic_frac", self.nic_frac),
            ("job_id", self.job_id),
            ("age", self.age),
        )
        for name, arr in arrays:
            if arr.shape != shape:
                raise TelemetryError(f"snapshot array {name} misaligned")
        if not math.isfinite(self.coverage) or not 0.0 <= self.coverage <= 1.0:
            raise TelemetryError("snapshot coverage outside [0, 1]")
        for _, arr in arrays:
            if arr.flags.writeable:
                arr.setflags(write=False)

    @property
    def size(self) -> int:
        """Number of monitored nodes in the snapshot."""
        return len(self.node_ids)

    def busy_mask(self) -> np.ndarray:
        """Mask of monitored nodes occupied by a job."""
        return self.job_id >= 0

    def stale_mask(self, max_age_s: float) -> np.ndarray:
        """Mask of entries older than ``max_age_s`` seconds.

        A non-finite age (``inf`` for never-reported or quarantined
        entries, NaN from any upstream defect) is always stale: a NaN
        would otherwise compare ``False`` and silently count as fresh —
        exactly the failure mode the never-upgrade clamp exists for.
        """
        age = np.asarray(self.age)
        return np.isnan(age) | (age > float(max_age_s))

    def index_of(self, node_id: int) -> int:
        """Position of ``node_id`` within the snapshot arrays.

        Raises:
            TelemetryError: if the node is not monitored.
        """
        hits = np.flatnonzero(self.node_ids == int(node_id))
        if len(hits) == 0:
            raise TelemetryError(f"node {node_id} is not in the snapshot")
        return int(hits[0])


class TelemetryCollector:
    """Central collection of candidate-node telemetry.

    Args:
        state: The cluster state to sample.
        candidate_ids: The candidate set ``A_candidate`` to monitor.
        fault_injector: Optional fault injector; when present, each
            sweep asks it which samples were lost and serves those nodes
            from the last-known-good cache.  When the injector carries a
            sensor-corruption model, the surviving fresh samples are
            corrupted *before* they reach the cache — the collector can
            only cache what the wire delivered.
        obs: Observability facade; when its metric registry is live the
            sweep statistics are mirrored as collected series and each
            sweep's worst cache age feeds a histogram.
        validator: Optional telemetry-integrity validator
            (:mod:`repro.telemetry.integrity`).  Fresh samples that fail
            its hard checks are served from the last-known-good cache
            exactly like dropped ones (and excluded from coverage);
            quarantined nodes' rows are replaced by the conservative
            worst-case envelope — full utilization at the node's known
            DVFS level, staleness pinned to ``inf``.
        engine: Hot-path engine the agent pool sweeps through (instance,
            registry name, or ``None`` for the default vector engine).
    """

    def __init__(
        self,
        state: ClusterState,
        candidate_ids: np.ndarray,
        fault_injector: FaultInjector | None = None,
        obs: Observability | None = None,
        validator: TelemetryValidator | None = None,
        engine: ClusterEngine | str | None = None,
    ) -> None:
        self._pool = AgentPool(state, candidate_ids, engine=engine)
        #: Read-only, so every snapshot shares them.
        self._node_ids = self._pool.node_ids
        self._zero_age = np.zeros(len(self._node_ids))
        self._zero_age.setflags(write=False)
        self._injector = fault_injector
        self._validator = validator
        #: Most recent snapshot (``P^t`` inputs).
        self.current: TelemetrySnapshot | None = None
        #: Snapshot before the most recent (``P^{t−1}`` inputs).
        self.previous: TelemetrySnapshot | None = None
        #: Rows of the most recent sweep the validator served as
        #: quarantine envelopes (0 with no validator attached).
        self.quarantined_nodes = 0
        self._collections = 0
        self._dropped_samples = 0
        # Last-known-good cache, primed at deploy time (each agent reads
        # its node once when installed), so a node dropped on the very
        # first sweep still has *some* row — marked infinitely stale
        # until its first successful report.
        # Rows level, job (integers) and cpu, mem, nic (readings).
        ids = self._node_ids
        self._lkg_codes = np.array((state.level[ids], state.job_id[ids]))
        self._lkg_readings = np.array(
            (state.cpu_util[ids], state.mem_frac[ids], state.nic_frac[ids])
        )
        self._lkg_time = np.full(len(ids), -np.inf)
        self._register_metrics(resolve_obs(obs))

    def _register_metrics(self, obs: Observability) -> None:
        """Mirror sweep statistics as collected metric series.

        Re-registration (a successor manager's fresh collector after
        failover) rebinds the callbacks to the live collector.
        """
        self._metrics_on = obs.metrics_on
        # Resolved once: the registry hands back the shared no-op
        # histogram when disabled, so collect() can call observe()
        # unconditionally under the _metrics_on guard.
        self._age_hist = obs.metrics.histogram(
            "repro_lkg_age_seconds",
            "Worst last-known-good cache age per sweep, seconds",
            buckets=(0.0, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0),
        )
        if not obs.metrics_on:
            return
        reg = obs.metrics
        reg.counter_func(
            "repro_telemetry_collections_total",
            "Telemetry sweeps performed",
            lambda: float(self._collections),
        )
        reg.counter_func(
            "repro_telemetry_dropped_samples_total",
            "Samples served from the last-known-good cache",
            lambda: float(self._dropped_samples),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def candidate_ids(self) -> np.ndarray:
        """The monitored candidate node set (read-only)."""
        return self._node_ids

    @property
    def size(self) -> int:
        """Number of monitored nodes."""
        return self._pool.size

    @property
    def collections(self) -> int:
        """Number of sweeps performed."""
        return self._collections

    @property
    def dropped_samples(self) -> int:
        """Samples served from the last-known-good cache so far."""
        return self._dropped_samples

    @property
    def validator(self) -> TelemetryValidator | None:
        """The attached integrity validator (None when undefended)."""
        return self._validator

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(self, now: float) -> TelemetrySnapshot:
        """Sweep all agents and return the new current snapshot.

        Lost samples (when a fault injector is attached) are replaced by
        the node's last-known-good row; the snapshot's ``age`` and
        ``coverage`` report exactly which entries are substitutes.  With
        a validator attached, hard-rejected fresh samples are served the
        same way, and quarantined nodes' rows become the conservative
        worst-case envelope.
        """
        level, cpu, mem, nic, job = self._pool.sample_arrays(now)
        age = self._zero_age
        coverage = 1.0
        if self._injector is not None or self._validator is not None:
            ids = self._node_ids
            if len(ids) == 0:
                # Convention: an empty candidate set has coverage 1.0
                # (vacuously full).  There is nothing to monitor, so a
                # blackout cannot be in progress and the manager's
                # forced-red rung must never fire on the absence of a
                # candidate set — only on a dark one.
                coverage = 1.0
                age = np.zeros(0, dtype=np.float64)
            else:
                if self._injector is not None:
                    # Corruption strikes at the sensor, before the wire
                    # can lose the sample; what the wire then delivers
                    # (corrupted or not) is all the collector ever sees.
                    self._injector.corrupt_telemetry(ids, cpu, mem, nic)
                    dropped = self._injector.telemetry_drop_mask(ids)
                else:
                    dropped = np.zeros(len(ids), dtype=bool)
                fresh = ~dropped
                quarantined: np.ndarray | None = None
                if self._validator is not None:
                    result = self._validator.validate(
                        level, cpu, mem, nic, job, fresh
                    )
                    self.quarantined_nodes = self._validator.quarantined_nodes
                    if self.quarantined_nodes:
                        quarantined = result.quarantined
                    fresh &= ~result.rejected
                # The cache takes every fresh row and keeps every other:
                # the result is the sweep with each unusable row served
                # from the cache.  The cache is replaced, never written,
                # so the snapshot may share its arrays.
                codes = np.where(fresh, (level, job), self._lkg_codes)
                readings = np.where(fresh, (cpu, mem, nic), self._lkg_readings)
                self._lkg_time = np.where(fresh, float(now), self._lkg_time)
                self._lkg_codes, self._lkg_readings = codes, readings
                reported = int(np.count_nonzero(fresh))
                self._dropped_samples += len(ids) - reported
                coverage = reported / len(ids)
                age = float(now) - self._lkg_time
                # Views of read-only arrays are born read-only.
                codes.setflags(write=False)
                if quarantined is not None:
                    # Conservative envelope: full utilization at the
                    # node's known DVFS level (the sampled one, standing
                    # in for the level the manager commanded), so the
                    # cluster estimate can only over-estimate; age
                    # pinned to inf so the never-upgrade clamp holds.
                    level = np.where(quarantined, level, codes[0])
                    readings = np.where(quarantined, 1.0, readings)
                    age[quarantined] = np.inf
                else:
                    level = codes[0]
                readings.setflags(write=False)
                job = codes[1]
                cpu, mem, nic = readings[0], readings[1], readings[2]
        snapshot = TelemetrySnapshot(
            time=float(now),
            node_ids=self._node_ids,
            level=level,
            cpu_util=cpu,
            mem_frac=mem,
            nic_frac=nic,
            job_id=job,
            age=age,
            coverage=coverage,
        )
        self.previous = self.current
        self.current = snapshot
        self._collections += 1
        if self._metrics_on and self._node_ids.size:
            if self._injector is None:
                # Fault-free sweeps have age ≡ 0 by construction; skip
                # the reduction on the hot path.
                self._age_hist.observe(0.0)
            else:
                worst = float(np.maximum.reduce(snapshot.age))
                if math.isfinite(worst):
                    self._age_hist.observe(worst)
        return snapshot

    # ------------------------------------------------------------------
    # Crash recovery (repro.ha state journal)
    # ------------------------------------------------------------------
    def restore_state(
        self,
        snapshot: TelemetrySnapshot | None,
        collections: int = 0,
        dropped_samples: int = 0,
    ) -> None:
        """Rebuild the collector of a crashed manager from its journal.

        The last journaled sweep carries everything the cache needs: its
        rows *are* the post-sweep last-known-good rows, and each node's
        last report time is exactly ``snapshot.time - age`` (``-inf``
        for a node that never reported).  The restored snapshot becomes
        ``current`` so the first post-recovery sweep sees it as
        ``previous`` — change-based policies resume on the same
        ``P^{t-1}`` an uncrashed manager would have used.

        Args:
            snapshot: The last pre-crash sweep (``None`` if the manager
                crashed before its first collection; the deploy-time
                cache priming then stands).
            collections: Journaled sweep count.
            dropped_samples: Journaled cache-substitution count.

        Raises:
            TelemetryError: if the snapshot does not cover exactly this
                collector's candidate set (a journal from a different
                configuration must not be replayed onto this one).
        """
        self._collections = int(collections)
        self._dropped_samples = int(dropped_samples)
        self.previous = None
        if snapshot is None:
            self.current = None
            return
        if not np.array_equal(snapshot.node_ids, self._node_ids):
            raise TelemetryError(
                "journaled snapshot does not cover this candidate set"
            )
        self._lkg_codes = np.array((snapshot.level, snapshot.job_id), dtype=np.int64)
        self._lkg_readings = np.array(
            (snapshot.cpu_util, snapshot.mem_frac, snapshot.nic_frac),
            dtype=np.float64,
        )
        self._lkg_time = float(snapshot.time) - np.asarray(
            snapshot.age, dtype=np.float64
        )
        self.current = snapshot
