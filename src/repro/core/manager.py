"""The assembled power manager: one object, one control cycle.

:class:`PowerManager` wires together everything the architecture diagram
(Figure 1) shows around the global power manager: the system power meter,
the candidate set's telemetry collector, the Formula (1) estimator, the
threshold controller, Algorithm 1, a target-selection policy and the DVFS
actuator.  The experiment harness calls :meth:`PowerManager.control_cycle`
once per control period (normally equal to the sampling interval τ) and
gets back a :class:`CycleReport`, the cycle's one record: the journal,
the cycle's span tree and the experiment result are projections of it.

When a :class:`~repro.faults.injector.FaultInjector` is attached, the
manager runs a **degraded-mode fail-safe ladder** on top of Algorithm 1
(knobs in :class:`~repro.faults.degraded.DegradedModeConfig`):

* **meter outage** → the cycle runs on the Formula (1) estimated
  aggregate (§III.B) anchored to the last metered reading; threshold
  learning freezes and no node may be upgraded while estimating;
* **stale telemetry** → a node whose sample is older than the stale-age
  bound is never upgraded (neither by steady-green restore nor by a
  command that would raise its actual level), it simply waits in
  ``A_degraded`` for fresh data;
* **candidate-set blackout** → sustained sub-coverage telemetry forces
  the cycle to red: with the candidate set dark, the safe assumption is
  the worst one.

With no injector attached every rung is compiled out of the path and the
control cycle is bit-for-bit the paper's.

When a :class:`~repro.provision.runtime.ProvisionRuntime` is attached,
the manager additionally defends the *budget side* of Algorithm 1
against power-delivery faults (feed loss, PDU failure, breaker trips,
operator cap orders):

* **budget renegotiation** — each cycle the surviving delivery capacity
  is pushed into :meth:`ThresholdController.set_envelope`, shrinking
  ``P_L``/``P_H`` the instant capacity is lost (and un-clamping them on
  recovery) while threshold *learning* stays clamped to the envelope;
* **emergency red** — a cycle whose draw exceeds surviving capacity is
  forced straight to red, bypassing cadence and steady-green hysteresis;
* **per-branch capping** — racks near their (possibly derated) branch
  rating are degraded locally through the fenced actuator;
* **degradation ladder** — sustained over-capacity escalates through
  job suspension to node shedding, with gradual re-admission
  (:class:`~repro.provision.emergency.EmergencyResponse`).

With a healthy scenario attached, none of this fires and the control
cycle remains bit-for-bit the undefended one.

For controller crash-recovery (:mod:`repro.ha`) the manager can share a
caller-supplied actuator (in-flight commands live in the network, not in
the manager process), journal every completed cycle to a
:class:`~repro.ha.journal.StateJournal`, emit a full
:meth:`~PowerManager.checkpoint`, and rebuild itself from a journal via
:meth:`~PowerManager.restore_state`.  A restored manager re-enters
service under a **recovery hold**: it never upgrades any node until
every candidate has reported fresh telemetry since the restore — its
cached view of the machine is only trustworthy where it has been
re-confirmed.  When the manager holds a fencing epoch, every command
batch carries it and a deposed incarnation's batches (and journal
writes) are rejected wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.engine import ClusterEngine, canonical_power_sum, get_engine
from repro.core.actuator import ActuationReport, DvfsActuator
from repro.core.capping import CappingAction, CappingDecision, PowerCappingAlgorithm
from repro.core.policies.base import PolicyContext, SelectionPolicy
from repro.core.sets import NodeSets
from repro.core.states import PowerState, classify_power_state
from repro.core.thresholds import ThresholdController
from repro.errors import ConfigurationError, DegradedModeError
from repro.faults.degraded import DegradedModeConfig
from repro.faults.injector import FaultInjector, FaultStats
from repro.ha.journal import (
    ControllerCheckpoint,
    CycleRecord,
    JournalRecovery,
    StateJournal,
)
from repro.obs.facade import Observability, resolve_obs
from repro.obs.trace import AttrValue
from repro.power.estimator import NodePowerEstimator
from repro.power.hetero import make_power_model
from repro.power.meter import SystemPowerMeter
from repro.provision.emergency import EmergencyResponse
from repro.provision.runtime import ProvisionRuntime, ProvisionStats
from repro.telemetry.collector import TelemetryCollector, TelemetrySnapshot
from repro.telemetry.integrity import (
    IntegrityConfig,
    MeterIntegrityMonitor,
    TelemetryValidator,
    screen_metered_power,
)
from repro.types import Seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduler.scheduler import BatchScheduler

__all__ = ["PowerManager", "CycleReport"]

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

    Args:
        cluster: The machine under management.
        sets: Node classification (candidate set = monitored + throttled).
        meter: Whole-system power meter.
        thresholds: Threshold controller (learning or fixed).
        policy: Target-set selection policy for yellow cycles.
        steady_green_cycles: ``T_g`` for Algorithm 1 (paper: 10).
        fault_injector: Optional fault injector; attaching one arms the
            degraded-mode fail-safe ladder.
        degraded: Ladder thresholds (defaults when omitted).
        actuator: Optional caller-owned actuator to share (the HA wiring
            passes the live one so in-flight commands survive a manager
            crash); a private one is created when omitted.
        journal: Optional state journal; when attached, every completed
            cycle appends a :class:`~repro.ha.journal.CycleRecord` and
            the journal is compacted with a fresh checkpoint on its
            cadence.
        obs: Observability facade (:mod:`repro.obs`).  When tracing is
            on the manager emits one span tree per control cycle; when
            metrics are on the cycle statistics are mirrored into the
            registry; when the flight recorder is armed the manager
            trips it on entry into the red state.  ``None`` (the
            default) resolves to the shared disabled facade and leaves
            the control cycle bit-for-bit unchanged.
        integrity: Telemetry-integrity knobs
            (:mod:`repro.telemetry.integrity`).  When given, the manager
            builds a per-node validation/trust/quarantine pipeline into
            its collector and a meter-residual monitor in front of
            classification, and freezes threshold learning whenever the
            meter is distrusted or any node is quarantined.  ``None``
            (the default) leaves the pipeline out entirely — the
            control cycle is bit-for-bit the undefended one.
        provision: Power-delivery runtime (:mod:`repro.provision`).
            When given, the manager drives its capacity events each
            cycle, renegotiates its budget against surviving capacity,
            runs the emergency-red / branch-capping / degradation-ladder
            defenses (if the scenario arms them), and settles true
            branch power into the breaker physics.  ``None`` (the
            default) leaves the whole domain out.
        scheduler: The batch scheduler, required for the ladder's
            suspend and shed rungs and for killing jobs on blacked-out
            racks; optional (without it the ladder stops at the DVFS
            floor).
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
        degraded: DegradedModeConfig | None = None,
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
        self._injector = fault_injector
        self._degraded_cfg = degraded if degraded is not None else DegradedModeConfig()
        self._obs = resolve_obs(obs)
        self._engine = get_engine(
            engine if engine is not None else getattr(cluster, "engine", None)
        )
        self._estimator = NodePowerEstimator(
            make_power_model(cluster), engine=self._engine
        )
        self._validator: TelemetryValidator | None = None
        self._meter_monitor: MeterIntegrityMonitor | None = None
        if integrity is not None:
            self._validator = TelemetryValidator(
                integrity,
                self._estimator,
                sets.candidates,
                cluster.spec.top_level,
                obs=obs,
            )
            self._meter_monitor = MeterIntegrityMonitor(integrity, obs=obs)
        self._collector = TelemetryCollector(
            cluster.state,
            sets.candidates,
            fault_injector,
            obs=obs,
            validator=self._validator,
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
        self._journal = journal
        self._cycles = 0
        #: Cycles per state value (a str hashes in C, an enum in Python).
        self._state_counts = {s.value: 0 for s in PowerState}
        # Degraded-mode ladder state.
        self._upgradable: np.ndarray | None = None
        self._blackout_streak = 0
        self._forced_red_cycles = 0
        self._estimated_cycles = 0
        self._aux_fenced_batches = 0
        self._last_metered_power: float | None = None
        self._last_metered_snapshot: TelemetrySnapshot | None = None
        self._offset_w = 0.0
        self._offset_valid = False
        # Crash-recovery state (repro.ha).
        self._epoch: int | None = None
        self._recovery_pending: set[int] = set()
        self._last_cycle_time = 0.0
        # Observability: previous cycle's state, for the red-entry trip.
        self._last_state: PowerState | None = None
        self._last_power_w = 0.0
        # Power-delivery fault domain (repro.provision).
        self._provision = provision
        self._emergency: EmergencyResponse | None = None
        self._prov_last_settle: float | None = None
        if provision is not None:
            if provision.topology.num_nodes != cluster.state.num_nodes:
                raise ConfigurationError(
                    "provision topology does not match the cluster size"
                )
            cand_mask = np.zeros(cluster.state.num_nodes, dtype=bool)
            cand_mask[sets.candidates] = True
            self._emergency = EmergencyResponse(provision, scheduler, cand_mask)
        self._register_metrics()

    def _power_ratio_high(self) -> float:
        """Collected-gauge callback: last power over P_H (0 if unset)."""
        p_high = self._thresholds.thresholds.p_high
        return self._last_power_w / p_high if p_high > 0.0 else 0.0

    def _register_metrics(self) -> None:
        """Wire the cycle-level metric series (no-op instruments when off).

        Everything the manager already tracks — per-state cycle counts,
        last power, P/P_H — is exposed as collected (export-time) series
        at zero per-cycle cost; only the target-set histogram needs one
        inline ``observe()`` per cycle (a distribution cannot be
        reconstructed from a callback).
        """
        obs = self._obs
        reg = obs.metrics
        self._metrics_on = obs.metrics_on
        self._targets_hist = reg.histogram(
            "repro_targets_per_cycle",
            "Target-set size of each cycle's capping decision",
            buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )
        if not obs.metrics_on:
            return
        for state in PowerState:
            reg.counter_func(
                "repro_cycles_total",
                "Control cycles by classified power state",
                (lambda v=state.value: float(self._state_counts[v])),
                labels={"state": state.value},
            )
        reg.gauge_func(
            "repro_system_power_watts",
            "Last observed system power, watts",
            lambda: self._last_power_w,
        )
        reg.gauge_func(
            "repro_power_ratio_high",
            "Last system power over the high threshold P/P_H",
            self._power_ratio_high,
        )
        reg.counter_func(
            "repro_forced_red_cycles_total",
            "Cycles the blackout rung forced to red",
            lambda: float(self._forced_red_cycles),
        )
        reg.counter_func(
            "repro_estimated_power_cycles_total",
            "Cycles run on the Formula (1) fallback estimate",
            lambda: float(self._estimated_cycles),
        )
        reg.counter_func(
            "repro_aux_fenced_batches_total",
            "Out-of-band actuation batches rejected by epoch fencing",
            lambda: float(self._aux_fenced_batches),
        )
        reg.gauge_func(
            "repro_time_in_green",
            "Algorithm 1 steady-green counter Time_g",
            lambda: float(self._capping.time_in_green),
        )
        reg.gauge_func(
            "repro_degraded_nodes",
            "Size of A_degraded (nodes currently capped)",
            lambda: float(len(self._capping.degraded_nodes)),
        )
        reg.gauge_func(
            "repro_recovery_pending_nodes",
            "Candidates awaiting fresh telemetry under the recovery hold",
            lambda: float(len(self._recovery_pending)),
        )
        if self._provision is not None:
            prov = self._provision
            reg.counter_func(
                "repro_breaker_trips_total",
                "Branch breakers tripped (racks blacked out)",
                lambda: float(prov.breaker_trips),
            )
            reg.counter_func(
                "repro_capacity_lost_watt_seconds_total",
                "Integrated (design - surviving) delivery capacity, W*s",
                lambda: prov.capacity_lost_w_seconds,
            )
            reg.counter_func(
                "repro_branch_cap_violation_seconds_total",
                "Seconds any branch drew above its deliverable limit",
                lambda: prov.branch_cap_violation_seconds,
            )
            reg.gauge_func(
                "repro_delivery_capacity_watts",
                "Surviving delivery capacity, watts",
                lambda: prov.capacity_w,
            )
        if self._emergency is not None:
            emr = self._emergency
            reg.counter_func(
                "repro_emergency_red_cycles_total",
                "Cycles forced red by the capacity emergency path",
                lambda: float(emr.emergency_red_cycles),
            )
            reg.counter_func(
                "repro_jobs_suspended_total",
                "Jobs suspended by the degradation ladder",
                lambda: float(emr.jobs_suspended),
            )

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
        """The attached fault injector (None when fault-free)."""
        return self._injector

    @property
    def validator(self) -> TelemetryValidator | None:
        """The telemetry-integrity validator (None when undefended)."""
        return self._validator

    @property
    def meter_monitor(self) -> MeterIntegrityMonitor | None:
        """The meter-integrity monitor (None when undefended)."""
        return self._meter_monitor

    @property
    def journal(self) -> StateJournal | None:
        """The attached state journal (None when not journaling)."""
        return self._journal

    @property
    def provision(self) -> ProvisionRuntime | None:
        """The attached power-delivery runtime (None when absent)."""
        return self._provision

    @property
    def emergency(self) -> EmergencyResponse | None:
        """The capacity-emergency response (None without provision)."""
        return self._emergency

    @property
    def fencing_epoch(self) -> int | None:
        """The epoch this incarnation's commands carry (None = unfenced)."""
        return self._epoch

    @property
    def deposed(self) -> bool:
        """Whether a successor's takeover has fenced this incarnation out."""
        return self._epoch is not None and self._epoch != self._actuator.epoch

    @property
    def in_recovery_hold(self) -> bool:
        """Whether the post-restore no-upgrade hold is still active."""
        return bool(self._recovery_pending)

    @property
    def recovery_pending_nodes(self) -> int:
        """Candidates not yet freshly re-observed since the restore."""
        return len(self._recovery_pending)

    def set_fencing_epoch(self, epoch: int) -> None:
        """Adopt the fencing epoch this incarnation's commands carry.

        Called by the HA layer at commissioning (primary) and takeover
        (successor).  The epoch is fixed for the incarnation's lifetime:
        when the actuator's epoch moves past it, this manager is deposed
        and every further batch it issues is fenced.
        """
        self._epoch = int(epoch)

    @property
    def forced_red_cycles(self) -> int:
        """Cycles the blackout rung forced to red."""
        return self._forced_red_cycles

    @property
    def estimated_power_cycles(self) -> int:
        """Cycles run on the Formula (1) fallback estimate."""
        return self._estimated_cycles

    @property
    def aux_fenced_batches(self) -> int:
        """Out-of-band actuation batches rejected by epoch fencing."""
        return self._aux_fenced_batches

    def state_count(self, state: PowerState) -> int:
        """Number of cycles classified as ``state``."""
        return self._state_counts[state.value]

    def ever_entered_red(self) -> bool:
        """Whether any cycle was classified red (§V.D checks this)."""
        return self._state_counts[PowerState.RED.value] > 0

    def fault_report(self) -> FaultStats | None:
        """Aggregate fault accounting for the run (None when fault-free)."""
        inj = self._injector
        if inj is None:
            return None
        act = self._actuator
        val = self._validator
        mon = self._meter_monitor
        return FaultStats(
            dropped_samples=self._collector.dropped_samples,
            meter_outages=inj.meter_outages,
            meter_outage_cycles=inj.meter_outage_cycles,
            node_crashes=inj.node_crashes,
            offline_node_cycles=inj.offline_node_cycles,
            commands_lost=act.lost_commands,
            commands_retried=act.retried_commands,
            commands_abandoned=act.abandoned_commands,
            forced_red_cycles=self._forced_red_cycles,
            estimated_power_cycles=self._estimated_cycles,
            corrupted_samples=inj.corrupted_samples,
            corrupted_meter_readings=inj.corrupted_meter_readings,
            corrupt_samples_rejected=0 if val is None else val.rejected_samples,
            quarantine_entries=0 if val is None else val.quarantine_entries,
            quarantined_node_cycles=(
                0 if val is None else val.quarantined_node_cycles
            ),
            meter_distrusted_cycles=0 if mon is None else mon.distrusted_cycles,
            meter_clamped_readings=self._meter.clamped_readings,
        )

    def provision_report(self) -> ProvisionStats | None:
        """Aggregate power-delivery accounting (None when no runtime).

        Delivery-side counters come from the runtime; the emergency
        response's ladder counters are folded in here because the
        manager owns the response object.
        """
        emr = self._emergency
        if emr is None:
            return None
        return replace(
            emr.runtime.stats(),
            emergency_red_cycles=emr.emergency_red_cycles,
            envelope_renegotiations=emr.envelope_renegotiations,
            branch_cap_interventions=emr.branch_cap_interventions,
            jobs_suspended=emr.jobs_suspended,
            jobs_resumed=emr.jobs_resumed,
            jobs_killed=emr.jobs_killed,
            nodes_shed=emr.nodes_shed,
            nodes_readmitted=emr.nodes_readmitted,
        )

    # ------------------------------------------------------------------
    # The control cycle
    # ------------------------------------------------------------------
    def control_cycle(self, now: Seconds) -> CycleReport:
        """Sense → classify → decide → actuate → journal, once.

        The returned :class:`CycleReport` is the cycle's one record:
        the journal stores it, and when tracing is on the cycle's span
        tree is projected from it (:meth:`_trace_cycle`).  A cycle that
        raises emits no tree.
        """
        inj = self._injector
        if inj is not None:
            inj.begin_cycle(now)
        # An EmergencyResponse exists exactly when a provision runtime
        # does, so ``emr`` gates the whole power-delivery domain.
        emr = self._emergency
        if emr is not None:
            emr.runtime.begin_cycle(now)
            if emr.defended:
                # Budget renegotiation: thresholds (and any later
                # learning) are clamped to the surviving capacity's
                # envelope the moment delivery changes, both downward on
                # a loss and back up on recovery.
                if self._thresholds.set_envelope(emr.envelope_w()):
                    emr.envelope_renegotiations += 1

        snapshot = self._collector.collect(now)
        if self._recovery_pending:
            # Recovery hold: tick off candidates that have reported
            # fresh since the restore (age 0 = sampled this sweep; age
            # is non-negative, so <= avoids exact float equality).
            fresh_ids = snapshot.node_ids[np.asarray(snapshot.age) <= 0.0]
            self._recovery_pending.difference_update(fresh_ids.tolist())
        metered = inj is None or inj.meter_available()
        if inj is not None:
            # Nodes eligible for an actual level raise this cycle:
            # fresh telemetry, and only on a real meter reading.
            allow = np.ones(self._cluster.state.num_nodes, dtype=bool)
            if metered:
                stale = snapshot.stale_mask(self._degraded_cfg.max_stale_age_s)
                allow[snapshot.node_ids[stale]] = False
            else:
                allow[:] = False
        else:
            allow = None
        if self._recovery_pending:
            # A restored manager upgrades nothing until every candidate
            # has been re-observed: its inherited view of the machine is
            # only trustworthy where it has been re-confirmed.
            if allow is None:
                allow = np.zeros(self._cluster.state.num_nodes, dtype=bool)
            else:
                allow[:] = False
        self._upgradable = allow
        # Flush in-flight commands after the sweep so late-landing
        # raises are clamped against this cycle's staleness; their
        # effect shows in the next sweep.
        self._actuator.begin_cycle(raise_ok=self._upgradable)

        quarantine_active = (
            self._validator is not None and self._validator.any_quarantined
        )
        meter_distrusted = False
        if metered:
            raw_power = self._meter.read()
            if inj is not None:
                raw_power = inj.perturb_meter(raw_power)
            # All raw meter readings pass the integrity layer's single
            # trusted egress before they may drive learning or control
            # (the cross-check uses the *raw* Formula (1) candidate sum
            # — the outage anchor would launder a byzantine meter's
            # error into the reference).
            screened = screen_metered_power(
                self._meter_monitor,
                raw_power,
                lambda: self._candidate_estimate_w(snapshot),
                quarantine_active,
                now,
            )
            power = screened.power_w
            meter_distrusted = screened.meter_distrusted
            if screened.learnable:
                # P_peak observations taken from a distrusted meter or a
                # quarantine-inflated estimate would poison the learned
                # thresholds for every later cycle.
                self._thresholds.observe(power)
            self._last_metered_power = power
            self._last_metered_snapshot = snapshot
            self._offset_valid = False
        else:
            power = self._estimate_system_power(snapshot)
            self._estimated_cycles += 1

        th = self._thresholds.thresholds
        state = classify_power_state(power, th.p_low, th.p_high)
        forced_red = False
        if inj is not None:
            cfg = self._degraded_cfg
            if snapshot.coverage < cfg.blackout_coverage:
                self._blackout_streak += 1
            else:
                self._blackout_streak = 0
            if (
                self._blackout_streak >= cfg.blackout_cycles
                and state is not PowerState.RED
            ):
                state = PowerState.RED
                forced_red = True
                self._forced_red_cycles += 1
        emergency_red = False
        if emr is not None and emr.update(now, power):
            # Capacity emergency: draw exceeds surviving delivery
            # capacity.  Red, now — cadence and steady-green hysteresis
            # are for budget *management*, not for physics.
            emergency_red = True
            state = PowerState.RED

        ctx = PolicyContext(
            snapshot=snapshot,
            previous=self._collector.previous,
            estimator=self._estimator,
            system_power=power,
            thresholds=th,
        )
        decision = self._decide(state, ctx)
        actuation = self._actuator.apply(
            decision, raise_ok=self._upgradable, epoch=self._epoch
        )
        if emr is not None:
            self._provision_settle(emr, now, state, decision)

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
            forced_red=forced_red,
            actuation=actuation,
            quarantined_nodes=(
                0 if self._validator is None else self._validator.quarantined_nodes
            ),
            meter_distrusted=meter_distrusted,
            capacity_w=None if emr is None else emr.runtime.capacity_w,
            emergency_red=emergency_red,
        )

        # Journal the completed cycle — unless this incarnation has
        # been deposed: fencing guards the log exactly like the
        # actuator, so a zombie primary cannot interleave its
        # timeline into the successor's journal.
        journaled = self._journal is not None and not self.deposed
        compacted = False
        if self._journal is not None and journaled:
            self._journal.append(
                CycleRecord(
                    cycle=self._cycles,
                    report=report,
                    blackout_streak=self._blackout_streak,
                    snapshot=snapshot,
                    actuator=self._actuator.state_dict(),
                )
            )
            if self._journal.should_compact():
                self._journal.compact(self.checkpoint())
                compacted = True

        if self._metrics_on:
            self._last_power_w = power
            self._targets_hist.observe(float(decision.num_targets))
        if self._obs.tracing:
            self._trace_cycle(report, snapshot.size, journaled, compacted)
        if state is PowerState.RED and self._last_state is not PowerState.RED:
            # Trip after the tree is delivered so the dump includes the
            # red cycle.
            self._obs.trip("red_state_entry", now)
        self._last_state = state
        return report

    def _trace_cycle(
        self, report: CycleReport, size: int, journaled: bool, compacted: bool
    ) -> None:
        """Project a finished cycle into its span tree and deliver it.

        The tree is ``cycle`` → ``collect`` / ``estimate`` /
        ``classify`` / ``select_targets`` / ``actuate`` / ``journal``.
        Every attribute comes from the report, the snapshot size, the
        recovery hold and the journal outcome; the attributes of an
        unattached subsystem (integrity, provision) are left out.
        """
        decision = report.decision
        act = report.actuation
        assert act is not None  # every cycle this manager runs actuates
        state = report.state.value
        action = decision.action.value
        estimate: dict[str, AttrValue] = {
            "metered": report.metered,
            "power_w": report.power_w,
        }
        if self._meter_monitor is not None:
            estimate["meter_distrusted"] = report.meter_distrusted
        classify: dict[str, AttrValue] = {
            "state": state,
            "p_low_w": report.p_low,
            "p_high_w": report.p_high,
            "forced_red": report.forced_red,
        }
        if self._emergency is not None:
            classify["emergency_red"] = report.emergency_red
        tracer = self._obs.tracer
        root = tracer.begin_cycle(report.time)
        leaf = tracer.leaf
        leaf(
            "collect",
            {
                "size": size,
                "coverage": report.coverage,
                "recovery_pending": len(self._recovery_pending),
            },
        )
        leaf("estimate", estimate)
        leaf("classify", classify)
        leaf(
            "select_targets",
            {
                "action": action,
                "targets": decision.num_targets,
                "time_in_green": decision.time_in_green,
            },
        )
        leaf(
            "actuate",
            {
                "commands": act.commands,
                "effective": act.effective,
                "noop": act.noop,
                "suppressed": act.suppressed,
                "lost": act.lost,
                "delayed": act.delayed,
                "fenced": act.fenced,
            },
        )
        leaf("journal", {"journaled": journaled, "compacted": compacted})
        p_high = report.p_high
        root.attrs = {
            "cycle": self._cycles,
            "power_w": report.power_w,
            "ratio_high": (report.power_w / p_high) if p_high > 0.0 else None,
            "state": state,
            "metered": report.metered,
            "coverage": report.coverage,
            "forced_red": report.forced_red,
            "degraded": report.degraded,
            "action": action,
            "targets": decision.num_targets,
            "epoch": self._epoch,
            "recovery_hold": bool(self._recovery_pending),
        }
        if self._validator is not None:
            root.attrs["quarantined_nodes"] = report.quarantined_nodes
        if self._emergency is not None:
            root.attrs["capacity_w"] = report.capacity_w
            root.attrs["emergency_red"] = report.emergency_red
        tracer.end_cycle()

    def _true_node_power_w(self) -> np.ndarray:
        """Per-node true power from the full live cluster state, watts.

        The estimator's model is the one the meter integrates, so
        evaluating it over the *actual* state arrays (not the telemetry
        snapshot, which may be stale, partial or corrupted) is the
        ground-truth branch power the breakers experience.  Read-only,
        so the provision runtime folds it into racks once.
        """
        power = self._estimator.model.node_power(self._cluster.state)
        power.setflags(write=False)
        return power

    def _note_aux_actuation(self, fenced: bool) -> None:
        """Status check for out-of-band actuation (RL502).

        Branch caps and blackout releases bypass the main per-cycle
        actuation span, so their outcome must be accounted here: a fully
        fenced batch means a successor owns the machine, and this
        incarnation's telemetry records the refusal instead of silently
        pretending the command landed.
        """
        if fenced:
            self._aux_fenced_batches += 1

    def _provision_settle(
        self,
        emr: EmergencyResponse,
        now: Seconds,
        state: PowerState,
        decision: CappingDecision,
    ) -> None:
        """The delivery-side tail of one cycle: branch caps + physics.

        After the global decision has been actuated, (1) per-branch
        capping degrades candidates on racks near their deliverable
        limit (through the fenced actuator, recorded in ``A_degraded``
        so steady-green restores them later), (2) the cycle's true
        branch power is settled into the breaker thermal model, and
        (3) any breaker that tripped blacks out its rack: jobs killed,
        nodes fenced offline and forced idle.
        """
        node_power = self._true_node_power_w()
        if emr.branch_caps_on:
            ids, new_levels = emr.branch_targets(
                self._cluster.state.level, node_power
            )
            if len(ids) > 0:
                self._capping.mark_degraded(ids)
                branch_decision = CappingDecision(
                    state,
                    CappingAction.DEGRADE,
                    ids,
                    new_levels,
                    decision.time_in_green,
                )
                branch_report = self._actuator.apply(
                    branch_decision,
                    raise_ok=self._upgradable,
                    epoch=self._epoch,
                )
                self._note_aux_actuation(
                    branch_report.fenced == branch_report.commands
                )
                # Branch capping changed levels inside this interval;
                # settle the physics against the post-cap draw.
                node_power = self._true_node_power_w()
        dt = (
            0.0
            if self._prov_last_settle is None
            else float(now) - self._prov_last_settle
        )
        self._prov_last_settle = float(now)
        tripped = emr.runtime.settle(now, dt, node_power)
        if len(tripped) > 0:
            dark = emr.handle_trips(tripped, now)
            if len(dark) > 0:
                # A dark rack draws nothing: force its nodes to the
                # floor through the fenced release path (RL301 — a
                # blackout is still actuation, never a raw level write).
                written = self._actuator.release(dark, 0, epoch=self._epoch)
                self._note_aux_actuation(written == 0)

    def _estimate_system_power(self, snapshot: TelemetrySnapshot) -> float:
        """Formula (1) fallback for total power during a meter outage.

        The candidate set's estimated aggregate tracks the part of the
        system the manager can observe; the remainder (privileged and
        unmonitored nodes) is carried as a constant offset anchored at
        the last metered cycle::

            P ≈ Σ_candidates P_formula1(now) + (P_metered − Σ P_formula1)|_last

        The offset is computed once per outage burst and reused until
        the meter returns.

        Raises:
            DegradedModeError: if there is neither telemetry nor any
                previously metered reading to anchor an estimate.
        """
        if snapshot.size == 0 and self._last_metered_power is None:
            raise DegradedModeError(
                "meter outage with no telemetry and no prior metered "
                "reading: the fail-safe ladder has no estimation basis"
            )
        est = self._candidate_estimate_w(snapshot)
        if not self._offset_valid:
            last = self._last_metered_snapshot
            if self._last_metered_power is not None and last is not None:
                self._offset_w = self._last_metered_power - self._candidate_estimate_w(
                    last
                )
            else:
                self._offset_w = 0.0
            self._offset_valid = True
        return max(0.0, est + self._offset_w)

    def _candidate_estimate_w(self, snapshot: TelemetrySnapshot) -> float:
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
        including the degraded-mode ladder, whose raise clamp is applied
        at the actuator regardless of how the decision was made.
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
        return ControllerCheckpoint(
            cycle=self._cycles,
            time=self._last_cycle_time,
            thresholds=self._thresholds.state_dict(),
            degraded_mask=tuple(mask.tolist()),
            time_in_green=self._capping.time_in_green,
            state_counts=dict(self._state_counts),
            forced_red_cycles=self._forced_red_cycles,
            estimated_cycles=self._estimated_cycles,
            blackout_streak=self._blackout_streak,
            snapshot=self._collector.current,
            collections=self._collector.collections,
            dropped_samples=self._collector.dropped_samples,
            last_metered_power=self._last_metered_power,
            last_metered_snapshot=self._last_metered_snapshot,
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
        the collector's last-known-good cache.  With no checkpoint the
        fold starts from this manager's pristine state, which is why the
        HA factory must construct successors with the same initial
        configuration (thresholds, margins, ``T_g``) as the primary.

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
        n = self._cluster.state.num_nodes
        if cp is not None:
            self._thresholds.restore_state(cp.thresholds)
            self._state_counts = {
                s.value: int(cp.state_counts.get(s.value, 0)) for s in PowerState
            }
            self._forced_red_cycles = int(cp.forced_red_cycles)
            self._estimated_cycles = int(cp.estimated_cycles)
            self._blackout_streak = int(cp.blackout_streak)
            self._last_metered_power = cp.last_metered_power
            self._last_metered_snapshot = cp.last_metered_snapshot
            mask = np.asarray(cp.degraded_mask, dtype=bool)
            time_g = int(cp.time_in_green)
        else:
            mask = np.zeros(n, dtype=bool)
            mask[self._capping.degraded_nodes] = True
            time_g = self._capping.time_in_green

        top = self._cluster.spec.top_level
        for r in recovery.records:
            report = r.report
            if report.metered:
                self._thresholds.observe(report.power_w)
                self._last_metered_power = report.power_w
                self._last_metered_snapshot = r.snapshot
            else:
                self._estimated_cycles += 1
            self._state_counts[report.state.value] += 1
            if report.forced_red:
                self._forced_red_cycles += 1
            self._blackout_streak = int(r.blackout_streak)
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

        # Collector: the newest journaled sweep is the cache.
        records = recovery.records
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
        self._offset_w = 0.0
        self._offset_valid = False
        self._upgradable = None
        self._recovery_pending = set(self._sets.candidates.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PowerManager policy={self._policy.name!r} "
            f"candidates={self._sets.size} cycles={self._cycles}>"
        )
