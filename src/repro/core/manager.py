"""The assembled power manager: one object, one control cycle.

:class:`PowerManager` wires together everything the architecture diagram
(Figure 1) shows around the global power manager: the system power meter,
the candidate set's telemetry collector, the Formula (1) estimator, the
threshold controller, Algorithm 1, a target-selection policy and the DVFS
actuator.  The experiment harness calls :meth:`PowerManager.control_cycle`
once per control period (normally equal to the sampling interval τ) and
gets back a :class:`CycleReport`, the cycle's one record: the journal,
the cycle's span tree and the experiment result are projections of it.

The cycle is the paper's alone: collect, meter, classify, decide,
actuate, record.  Each optional subsystem is a layer kept with that
subsystem, whose hooks the manager binds at the stage boundaries once,
at construction or restore; with none attached the cycle is bit for bit
the paper's.  The layers, in the order their hooks run at a boundary:

* the degraded-mode ladder and its fault injector
  (:class:`~repro.faults.degraded.DegradedModeLadder`);
* power delivery (:class:`~repro.provision.emergency.PowerDelivery`);
* crash recovery: the journal and the recovery hold
  (:class:`~repro.ha.journal.JournalLayer`);
* the observability projection (:class:`~repro.obs.cycle.CycleProjection`).

Telemetry integrity (:class:`~repro.telemetry.integrity.IntegrityDefense`)
needs no hook: its validator runs inside the collector's sweep and its
monitor screens the meter reading through
:func:`~repro.telemetry.integrity.screen_metered_power`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.engine import ClusterEngine, canonical_power_sum, get_engine
from repro.core.actuator import ActuationReport, DvfsActuator
from repro.core.capping import CappingAction, CappingDecision, PowerCappingAlgorithm
from repro.core.policies.base import PolicyContext, SelectionPolicy
from repro.core.sets import NodeSets
from repro.core.states import PowerState, classify_power_state
from repro.core.thresholds import ThresholdController
from repro.errors import ConfigurationError
from repro.faults.degraded import DegradedModeLadder
from repro.faults.injector import FaultInjector, FaultStats
from repro.ha.journal import (
    ControllerCheckpoint,
    JournalLayer,
    JournalRecovery,
    StateJournal,
)
from repro.obs.cycle import CycleProjection
from repro.obs.facade import Observability
from repro.power.estimator import NodePowerEstimator
from repro.power.hetero import make_power_model
from repro.power.meter import SystemPowerMeter
from repro.provision.emergency import PowerDelivery
from repro.provision.runtime import ProvisionRuntime, ProvisionStats
from repro.telemetry.collector import TelemetryCollector, TelemetrySnapshot
from repro.telemetry.integrity import (
    IntegrityConfig,
    IntegrityDefense,
    screen_metered_power,
)
from repro.types import Seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduler.scheduler import BatchScheduler

__all__ = ["PowerManager", "CycleReport"]

#: Cycles per state value, before the first cycle.
_NO_CYCLES = {s.value: 0 for s in PowerState}

@dataclass(frozen=True)
class CycleReport:
    """What one control cycle saw and did."""

    time: float
    power_w: float
    state: PowerState
    decision: CappingDecision
    p_low: float
    p_high: float
    #: Whether the power value came from the meter (False = Formula (1)
    #: fallback estimate during a meter outage).
    metered: bool = True
    #: Fraction of candidate agents that reported fresh data.
    coverage: float = 1.0
    #: Whether the blackout rung forced this cycle to red.
    forced_red: bool = False
    #: Outcome of this cycle's DVFS command batch.
    actuation: ActuationReport | None = None
    #: Nodes under telemetry-integrity quarantine this cycle.
    quarantined_nodes: int = 0
    #: Whether the integrity monitor distrusted the meter this cycle.
    meter_distrusted: bool = False
    #: Surviving delivery capacity this cycle, watts (None = no
    #: provision runtime attached).
    capacity_w: float | None = None
    #: Whether the capacity-emergency path forced this cycle to red.
    emergency_red: bool = False

    @property
    def acted(self) -> bool:
        """Whether any DVFS command was issued this cycle."""
        return self.decision.action is not CappingAction.NONE

    @property
    def degraded(self) -> bool:
        """Whether the cycle ran on degraded sensing."""
        return self.forced_red or not self.metered


class PowerManager:
    """The global power manager of the proposed architecture.

    Layers hook into :meth:`control_cycle` at five boundaries; a layer's
    ``hooks()`` maps each boundary it uses to a callable:

    * ``"start"`` ``(now)`` — before the sweep;
    * ``"raise_mask"`` ``(snapshot, mask) -> mask`` — after the sweep,
      folding the nodes whose actual level may not rise this cycle
      (``None`` = all may);
    * ``"classified"`` ``(now, power, state, snapshot, facts) -> state``
      — after classification, possibly overriding the state;
    * ``"actuated"`` ``(now, state, decision, facts)`` — after the
      decision's commands;
    * ``"recorded"`` ``(cycle, report, snapshot)`` — after the report.

    ``facts`` carries the :class:`CycleReport` fields a layer owns.  A
    layer that actuates calls :meth:`actuate_for_layer`, so the manager
    stays the only issuer of DVFS commands.

    Args:
        cluster: The machine under management.
        sets: Node classification (candidate set = monitored + throttled).
        meter: Whole-system power meter.
        thresholds: Threshold controller (learning or fixed).
        policy: Target-set selection policy for yellow cycles.
        steady_green_cycles: ``T_g`` for Algorithm 1 (paper: 10).
        fault_injector: Optional fault injector; attaching one arms the
            degraded-mode ladder.
        actuator: Optional caller-owned actuator to share (the HA wiring
            passes the live one so in-flight commands survive a manager
            crash); a private one is created when omitted.
        journal: Optional state journal every completed cycle is
            appended to.
        obs: Observability facade (:mod:`repro.obs`); with any
            instrument on it attaches the observability projection.
        integrity: Telemetry-integrity knobs; attaches the integrity
            layer.
        provision: Power-delivery runtime; attaches the delivery layer.
        scheduler: The batch scheduler, for the delivery layer's suspend
            and shed rungs and for killing jobs on blacked-out racks.
        engine: Hot-path engine for estimation and telemetry sweeps
            (instance, registry name, or ``None`` to inherit the
            cluster's engine preference).
    """

    def __init__(
        self,
        cluster: Cluster,
        sets: NodeSets,
        meter: SystemPowerMeter,
        thresholds: ThresholdController,
        policy: SelectionPolicy,
        steady_green_cycles: int = 10,
        fault_injector: FaultInjector | None = None,
        actuator: DvfsActuator | None = None,
        journal: StateJournal | None = None,
        obs: Observability | None = None,
        integrity: IntegrityConfig | None = None,
        provision: ProvisionRuntime | None = None,
        scheduler: "BatchScheduler | None" = None,
        engine: ClusterEngine | str | None = None,
    ) -> None:
        self._cluster = cluster
        self._sets = sets
        self._meter = meter
        self._thresholds = thresholds
        self._policy = policy
        self._engine = get_engine(
            engine if engine is not None else getattr(cluster, "engine", None)
        )
        model = make_power_model(cluster)
        self._estimator = NodePowerEstimator(model, engine=self._engine)
        num_nodes = cluster.state.num_nodes
        self._integrity = (
            None
            if integrity is None
            else IntegrityDefense(
                integrity,
                self._estimator,
                sets.candidates,
                cluster.spec.top_level,
                obs,
            )
        )
        self._collector = TelemetryCollector(
            cluster.state,
            sets.candidates,
            fault_injector,
            obs=obs,
            validator=None if self._integrity is None else self._integrity.validator,
            engine=self._engine,
        )
        # Every snapshot shares the collector's read-only candidate ids;
        # ascending, they are the canonical summation order already.
        ids = self._collector.candidate_ids
        self._ascending_ids = ids if np.all(ids[1:] > ids[:-1]) else None
        self._capping = PowerCappingAlgorithm(
            sets, cluster.spec.top_level, steady_green_cycles
        )
        self._actuator = (
            actuator
            if actuator is not None
            else DvfsActuator(cluster.state, fault_injector, obs=obs)
        )
        self._cycles = 0
        #: Cycles per state value (a str hashes in C, an enum in Python).
        self._state_counts = dict(_NO_CYCLES)
        #: This cycle's raise mask (None = every node may be raised).
        self._upgradable: np.ndarray | None = None
        self._aux_fenced_batches = 0
        self._epoch: int | None = None
        self._last_cycle_time = 0.0

        # The layers, in the order their hooks run at every boundary.
        # They reach back through a weak proxy, so a finished run's
        # manager is freed by reference counting.
        me = weakref.proxy(self)
        self._ladder = DegradedModeLadder(fault_injector, meter, num_nodes, me)
        self._delivery: PowerDelivery | None = None
        if provision is not None:
            if provision.topology.num_nodes != num_nodes:
                raise ConfigurationError(
                    "provision topology does not match the cluster size"
                )
            cand_mask = np.zeros(num_nodes, dtype=bool)
            cand_mask[sets.candidates] = True
            self._delivery = PowerDelivery(
                provision,
                scheduler,
                cand_mask,
                thresholds,
                model,
                cluster.state,
                me,
                obs,
            )
        self._recovery = JournalLayer(
            me, journal, self._actuator, self._ladder, num_nodes
        )
        layers: list[Any] = [self._ladder, self._delivery, self._recovery]
        if obs is not None and obs.enabled:
            layers.append(
                CycleProjection(
                    obs,
                    self,
                    self._ladder,
                    self._recovery,
                    integrity=self._integrity is not None,
                    delivery=self._delivery is not None,
                )
            )
        self._layers = [layer for layer in layers if layer is not None]
        self.bind_hooks()

    def bind_hooks(self) -> None:
        """Bind every layer's hooks at their boundaries, in layer order.

        Called at construction and restore, and by a layer whose hook
        has nothing left to do.
        """
        hooks: list[dict[str, Callable[..., Any]]] = [
            layer.hooks() for layer in self._layers
        ]
        self._at_start = [h["start"] for h in hooks if "start" in h]
        self._at_raise_mask = [h["raise_mask"] for h in hooks if "raise_mask" in h]
        self._at_classified = [h["classified"] for h in hooks if "classified" in h]
        self._at_actuated = [h["actuated"] for h in hooks if "actuated" in h]
        self._at_recorded = [h["recorded"] for h in hooks if "recorded" in h]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sets(self) -> NodeSets:
        """The node-set classification."""
        return self._sets

    @property
    def policy(self) -> SelectionPolicy:
        """The active target-selection policy."""
        return self._policy

    @property
    def thresholds(self) -> ThresholdController:
        """The threshold controller."""
        return self._thresholds

    @property
    def collector(self) -> TelemetryCollector:
        """The candidate-set telemetry collector."""
        return self._collector

    @property
    def actuator(self) -> DvfsActuator:
        """The DVFS actuator (actuation statistics)."""
        return self._actuator

    @property
    def capping(self) -> PowerCappingAlgorithm:
        """The Algorithm 1 instance (``A_degraded``, ``Time_g``)."""
        return self._capping

    @property
    def cycles(self) -> int:
        """Control cycles run so far."""
        return self._cycles

    @property
    def fault_injector(self) -> FaultInjector | None:
        """The run's fault injector (None when fault-free)."""
        return self._ladder.injector

    @property
    def fencing_epoch(self) -> int | None:
        """The epoch this incarnation's commands carry (None = unfenced)."""
        return self._epoch

    @property
    def deposed(self) -> bool:
        """Whether a successor's takeover has fenced this incarnation out."""
        return self._epoch is not None and self._epoch != self._actuator.epoch

    def set_fencing_epoch(self, epoch: int) -> None:
        """Adopt the fencing epoch this incarnation's commands carry.

        Called by the HA layer at commissioning (primary) and takeover
        (successor).  The epoch is fixed for the incarnation's lifetime:
        when the actuator's epoch moves past it, this manager is deposed
        and every further batch it issues is fenced.
        """
        self._epoch = int(epoch)

    @property
    def aux_fenced_batches(self) -> int:
        """Layer actuation batches rejected by epoch fencing."""
        return self._aux_fenced_batches

    def state_count(self, state: PowerState) -> int:
        """Number of cycles classified as ``state``."""
        return self._state_counts[state.value]

    def ever_entered_red(self) -> bool:
        """Whether any cycle was classified red (§V.D checks this)."""
        return self._state_counts[PowerState.RED.value] > 0

    def fault_report(self) -> FaultStats | None:
        """Aggregate fault accounting for the run (None when fault-free)."""
        defense = self._integrity
        return self._ladder.stats(
            self._collector,
            self._actuator,
            {} if defense is None else defense.fault_counts(),
        )

    def provision_report(self) -> ProvisionStats | None:
        """Aggregate power-delivery accounting (None when no runtime)."""
        return None if self._delivery is None else self._delivery.stats()

    # ------------------------------------------------------------------
    # The control cycle
    # ------------------------------------------------------------------
    def control_cycle(self, now: Seconds) -> CycleReport:
        """Collect → meter → classify → decide → actuate → record, once.

        The layers' hooks run at the boundaries (see the class
        docstring).  The returned :class:`CycleReport` is the cycle's
        one record.
        """
        facts: dict[str, Any] = {}
        for hook in self._at_start:
            hook(now)

        snapshot = self._collector.collect(now)
        raise_ok: np.ndarray | None = None
        for mask in self._at_raise_mask:
            raise_ok = mask(snapshot, raise_ok)
        self._upgradable = raise_ok
        # Flush in-flight commands after the sweep so late-landing
        # raises are clamped against this cycle's staleness; their
        # effect shows in the next sweep.
        self._actuator.begin_cycle(raise_ok=raise_ok)

        metered = self._meter.available
        if metered:
            # A raw reading passes the integrity layer's single trusted
            # egress before it may drive learning or control; the
            # cross-check uses the raw Formula (1) candidate sum.
            screened = screen_metered_power(
                self._integrity,
                self._meter.read(),
                lambda: self.candidate_power_w(snapshot),
                self._collector.quarantined_nodes > 0,
                now,
            )
            power = screened.power_w
            facts["meter_distrusted"] = screened.meter_distrusted
            if screened.learnable:
                # Readings from a distrusted meter or a quarantine-
                # inflated estimate would poison the learned thresholds.
                self._thresholds.observe(power)
        else:
            power = self._ladder.estimate_power(snapshot)

        th = self._thresholds.thresholds
        state = classify_power_state(power, th.p_low, th.p_high)
        for hook in self._at_classified:
            state = hook(now, power, state, snapshot, facts)

        ctx = PolicyContext(
            snapshot=snapshot,
            previous=self._collector.previous,
            estimator=self._estimator,
            system_power=power,
            thresholds=th,
        )
        decision = self._decide(state, ctx)
        actuation = self._actuator.apply(
            decision, raise_ok=raise_ok, epoch=self._epoch
        )
        for hook in self._at_actuated:
            hook(now, state, decision, facts)

        self._cycles += 1
        self._state_counts[state.value] += 1
        self._last_cycle_time = now
        report = CycleReport(
            time=now,
            power_w=power,
            state=state,
            decision=decision,
            p_low=th.p_low,
            p_high=th.p_high,
            metered=metered,
            coverage=snapshot.coverage,
            actuation=actuation,
            quarantined_nodes=self._collector.quarantined_nodes,
            **facts,
        )
        for hook in self._at_recorded:
            hook(self._cycles, report, snapshot)
        return report

    def actuate_for_layer(
        self,
        node_ids: np.ndarray,
        new_levels: np.ndarray | None,
        state: PowerState,
        time_in_green: int,
    ) -> None:
        """Actuate on a layer's behalf, fenced by this incarnation's epoch.

        With ``new_levels`` the nodes are degraded as a yellow decision
        would be: recorded in ``A_degraded`` (so steady green restores
        them later) and clamped by the cycle's raise mask.  With
        ``None`` they are forced to the DVFS floor through the release
        path — a blackout is still actuation, never a raw level write
        (RL301).  A batch fenced out whole means a successor owns the
        machine; it is counted, never hidden (RL502).
        """
        if new_levels is None:
            fenced = self._actuator.release(node_ids, 0, epoch=self._epoch) == 0
        else:
            self._capping.mark_degraded(node_ids)
            report = self._actuator.apply(
                CappingDecision(
                    state, CappingAction.DEGRADE, node_ids, new_levels, time_in_green
                ),
                raise_ok=self._upgradable,
                epoch=self._epoch,
            )
            fenced = report.fenced == report.commands
        if fenced:
            self._aux_fenced_batches += 1

    def candidate_power_w(self, snapshot: TelemetrySnapshot) -> float:
        """Σ over monitored nodes of the Formula (1) estimate, watts.

        Accumulated in the canonical ascending-node-id order so the sum
        is bit-identical on either engine and under any candidate
        permutation.
        """
        if snapshot.size == 0:
            return 0.0
        ids = snapshot.node_ids
        estimates = self._estimator.estimate_nodes(
            snapshot.level,
            snapshot.cpu_util,
            snapshot.mem_frac,
            snapshot.nic_frac,
            node_ids=ids,
        )
        return canonical_power_sum(
            estimates, None if ids is self._ascending_ids else ids
        )

    def _decide(self, state: PowerState, ctx: PolicyContext) -> CappingDecision:
        """The decision step of one cycle.

        The default implementation is the paper's Algorithm 1 driven by
        the configured target-selection policy; baseline controllers
        (:mod:`repro.core.baselines`) override this single method and
        inherit all sensing, actuation and reporting machinery —
        including the cycle's raise mask, which the actuator applies
        regardless of how the decision was made.
        """
        return self._capping.decide(
            state, ctx, self._policy, upgradable=self._upgradable
        )

    # ------------------------------------------------------------------
    # Crash recovery (repro.ha)
    # ------------------------------------------------------------------
    def checkpoint(self) -> ControllerCheckpoint:
        """Fold the manager's full resumable state into one checkpoint.

        Everything Algorithm 1 and the degraded-mode ladder need to
        continue from this exact cycle; see
        :class:`~repro.ha.journal.ControllerCheckpoint` for the record
        layout and :meth:`restore_state` for the inverse.
        """
        n = self._cluster.state.num_nodes
        mask = np.zeros(n, dtype=bool)
        mask[self._capping.degraded_nodes] = True
        ladder = self._ladder
        return ControllerCheckpoint(
            cycle=self._cycles,
            time=self._last_cycle_time,
            thresholds=self._thresholds.state_dict(),
            degraded_mask=tuple(mask.tolist()),
            time_in_green=self._capping.time_in_green,
            state_counts=dict(self._state_counts),
            forced_red_cycles=ladder.forced_red_cycles,
            estimated_cycles=ladder.estimated_cycles,
            blackout_streak=ladder.blackout_streak,
            snapshot=self._collector.current,
            collections=self._collector.collections,
            dropped_samples=self._collector.dropped_samples,
            last_metered_power=ladder.last_metered_power,
            last_metered_snapshot=ladder.last_metered_snapshot,
            actuator=self._actuator.state_dict(),
        )

    def restore_state(
        self, recovery: JournalRecovery, restore_actuator: bool = False
    ) -> None:
        """Rebuild this (freshly constructed) manager from a journal.

        The checkpoint is adopted wholesale, then each subsequent record
        is folded on: metered powers replay through threshold learning
        (bit-identical, since learning is a pure function of the reading
        sequence), the journaled *decisions* replay onto ``A_degraded``
        — policies are never re-run, so stochastic policies consume no
        RNG during recovery — and the final record's snapshot rebuilds
        the collector's last-known-good cache.  The degraded-mode ladder
        folds its own counters.  With no checkpoint the fold starts from
        this manager's pristine state, which is why the HA factory must
        construct successors with the same initial configuration
        (thresholds, margins, ``T_g``) as the primary.

        After the restore the recovery hold is armed: no node is
        upgraded until every candidate has reported fresh telemetry.

        Args:
            recovery: What :meth:`StateJournal.recover` returned.
            restore_actuator: Also overwrite the actuator's queue and
                counters from the journal (cold restore onto a fresh
                actuator).  The default leaves the actuator alone — the
                warm HA wiring shares the live actuator, whose in-flight
                queue is the network's truth, not the journal's.
        """
        cp = recovery.checkpoint
        records = recovery.records
        n = self._cluster.state.num_nodes
        if cp is not None:
            self._thresholds.restore_state(cp.thresholds)
            self._state_counts = {
                v: int(cp.state_counts.get(v, 0)) for v in _NO_CYCLES
            }
            mask = np.asarray(cp.degraded_mask, dtype=bool)
            time_g = int(cp.time_in_green)
        else:
            mask = np.zeros(n, dtype=bool)
            mask[self._capping.degraded_nodes] = True
            time_g = self._capping.time_in_green

        top = self._cluster.spec.top_level
        for r in records:
            report = r.report
            if report.metered:
                self._thresholds.observe(report.power_w)
            self._state_counts[report.state.value] += 1
            decision = report.decision
            ids = decision.node_ids
            if decision.action is CappingAction.DEGRADE:
                mask[ids] = True
            elif decision.action is CappingAction.UPGRADE:
                mask[ids[decision.new_levels >= top]] = False
            elif decision.action is CappingAction.EMERGENCY:
                mask[:] = False
                mask[ids] = True
            time_g = int(decision.time_in_green)
        self._capping.restore(mask, time_g)
        self._ladder.restore(cp, records)

        # Collector: the newest journaled sweep is the cache.
        snapshot = records[-1].snapshot if records else (
            cp.snapshot if cp is not None else None
        )
        base_collections = cp.collections if cp is not None else 0
        base_dropped = cp.dropped_samples if cp is not None else 0
        folded_dropped = sum(
            int(np.count_nonzero(np.asarray(r.snapshot.age) > 0.0))
            for r in records
        )
        self._collector.restore_state(
            snapshot,
            collections=base_collections + len(records),
            dropped_samples=base_dropped + folded_dropped,
        )

        if restore_actuator:
            act_state = records[-1].actuator if records else (
                cp.actuator if cp is not None else None
            )
            if act_state is not None:
                self._actuator.restore_state(act_state)

        self._cycles = recovery.last_cycle
        self._last_cycle_time = (
            records[-1].report.time
            if records
            else (cp.time if cp is not None else 0.0)
        )
        self._upgradable = None
        self._recovery.arm(self._sets.candidates)
        self.bind_hooks()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PowerManager policy={self._policy.name!r} "
            f"candidates={self._sets.size} cycles={self._cycles}>"
        )
