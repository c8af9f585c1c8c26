"""The manager's degraded-mode fail-safe ladder.

When the monitoring plane misbehaves, the power manager steps down a
ladder of increasingly conservative behaviours instead of acting on bad
data (each rung documented in ``docs/robustness.md``):

1. **Meter outage** → run the cycle on the Formula (1) estimated
   aggregate (§III.B) anchored to the last metered reading, freeze
   threshold learning, and allow no upgrades while estimating.
2. **Stale telemetry** → a node whose sample is older than
   :data:`MAX_STALE_AGE_S` is never upgraded (its true operating point
   is unknown; raising its frequency could overshoot the cap).
3. **Candidate-set blackout** → if telemetry coverage stays below
   :data:`BLACKOUT_COVERAGE` for :data:`BLACKOUT_CYCLES` consecutive
   cycles, the cycle is treated as **red** regardless of the metered
   state: with the candidate set dark, the safe assumption is the worst
   one.

These are control-behaviour constants, not fault rates — they stay
fixed while scenarios sweep — and with a healthy monitoring plane none
of the rungs ever triggers, so the ladder is exactly the paper's
Algorithm 1 in the fault-free limit.

:class:`DegradedModeLadder` runs the rungs for one manager incarnation,
at the control cycle's stage boundaries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.states import PowerState
from repro.errors import DegradedModeError
from repro.faults.injector import FaultInjector, FaultStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.actuator import DvfsActuator
    from repro.core.manager import PowerManager
    from repro.ha.journal import ControllerCheckpoint, CycleRecord
    from repro.power.meter import SystemPowerMeter
    from repro.telemetry.collector import TelemetryCollector, TelemetrySnapshot

__all__ = ["DegradedModeLadder"]

#: Maximum telemetry age (seconds) at which a node's data still counts
#: as fresh enough to justify an upgrade: a couple of dropped samples at
#: the paper's τ = 1 s before a node is declared stale.
MAX_STALE_AGE_S = 3.0
#: Coverage fraction below which a cycle counts toward a candidate-set
#: blackout.
BLACKOUT_COVERAGE = 0.5
#: Consecutive low-coverage cycles before the ladder forces red.
BLACKOUT_CYCLES = 5


class DegradedModeLadder:
    """The fail-safe ladder of one manager incarnation.

    Every manager has one; it acts only when a fault injector is
    attached, and then hooks into the cycle at these boundaries:

    * **cycle start** — the injector's clock
      (:meth:`FaultInjector.begin_cycle`);
    * **raise mask** — no raise on a stale node, none at all during a
      meter outage, which the meter's ``available`` flag reports;
    * **meter** — the injector's sensor error rides on every reading
      (``SystemPowerMeter.perturbation``); during an outage the manager
      takes :meth:`estimate_power` instead of reading;
    * **after classify** — the blackout rung forces red, and a metered
      cycle re-anchors the outage estimate.

    Without an injector it binds no hook and its state stays pristine.

    Args:
        injector: The run's fault injector, or ``None``.
        meter: The system meter the manager reads.
        num_nodes: Cluster size (a raise mask covers every node).
        manager: The incarnation (its Formula (1) candidate sum).
    """

    def __init__(
        self,
        injector: FaultInjector | None,
        meter: "SystemPowerMeter",
        num_nodes: int,
        manager: "PowerManager",
    ) -> None:
        self.injector = injector
        self._meter = meter
        self._num_nodes = num_nodes
        self._manager = manager
        if injector is not None:
            meter.perturbation = injector.perturb_meter
        self.blackout_streak = 0
        self.forced_red_cycles = 0
        self.estimated_cycles = 0
        #: The outage estimate's anchor: the last metered cycle.
        self.last_metered_power: float | None = None
        self.last_metered_snapshot: "TelemetrySnapshot | None" = None
        self._offset_w = 0.0
        self._offset_valid = False

    def hooks(self) -> dict[str, Callable[..., Any]]:
        """The ladder's hooks by boundary (none without an injector)."""
        if self.injector is None:
            return {}
        return {
            "start": self.injector.begin_cycle,
            "raise_mask": self.raise_mask,
            "classified": self.classified,
        }

    def raise_mask(
        self, snapshot: "TelemetrySnapshot", allow: np.ndarray | None
    ) -> np.ndarray:
        """Open the cycle's raise mask: fresh telemetry, and only on a
        real meter reading."""
        assert self.injector is not None
        metered = self._meter.available = self.injector.meter_available()
        allow = np.ones(self._num_nodes, dtype=bool)
        if metered:
            stale = snapshot.stale_mask(MAX_STALE_AGE_S)
            allow[snapshot.node_ids[stale]] = False
        else:
            allow[:] = False
        return allow

    def classified(
        self,
        now: float,
        power: float,
        state: PowerState,
        snapshot: "TelemetrySnapshot",
        facts: dict[str, Any],
    ) -> PowerState:
        """Force red after a sustained candidate-set blackout: with the
        candidate set dark, the safe assumption is the worst one."""
        if self._meter.available:
            self.last_metered_power = power
            self.last_metered_snapshot = snapshot
            self._offset_valid = False
        if snapshot.coverage < BLACKOUT_COVERAGE:
            self.blackout_streak += 1
        else:
            self.blackout_streak = 0
        if self.blackout_streak >= BLACKOUT_CYCLES and state is not PowerState.RED:
            facts["forced_red"] = True
            self.forced_red_cycles += 1
            return PowerState.RED
        return state

    def estimate_power(self, snapshot: "TelemetrySnapshot") -> float:
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
        if snapshot.size == 0 and self.last_metered_power is None:
            raise DegradedModeError(
                "meter outage with no telemetry and no prior metered "
                "reading: the fail-safe ladder has no estimation basis"
            )
        est = self._manager.candidate_power_w(snapshot)
        if not self._offset_valid:
            last = self.last_metered_snapshot
            if self.last_metered_power is not None and last is not None:
                self._offset_w = (
                    self.last_metered_power - self._manager.candidate_power_w(last)
                )
            else:
                self._offset_w = 0.0
            self._offset_valid = True
        self.estimated_cycles += 1
        return max(0.0, est + self._offset_w)

    def stats(
        self,
        collector: "TelemetryCollector",
        actuator: "DvfsActuator",
        integrity: dict[str, int],
    ) -> FaultStats | None:
        """The run's fault accounting (None without an injector), with
        the integrity layer's ``integrity`` fields folded in."""
        inj = self.injector
        if inj is None:
            return None
        return FaultStats(
            dropped_samples=collector.dropped_samples,
            meter_outages=inj.meter_outages,
            meter_outage_cycles=inj.meter_outage_cycles,
            node_crashes=inj.node_crashes,
            offline_node_cycles=inj.offline_node_cycles,
            commands_lost=actuator.lost_commands,
            commands_retried=actuator.retried_commands,
            commands_abandoned=actuator.abandoned_commands,
            forced_red_cycles=self.forced_red_cycles,
            estimated_power_cycles=self.estimated_cycles,
            corrupted_samples=inj.corrupted_samples,
            corrupted_meter_readings=inj.corrupted_meter_readings,
            meter_clamped_readings=self._meter.clamped_readings,
            **integrity,
        )

    def restore(
        self, cp: "ControllerCheckpoint | None", records: tuple["CycleRecord", ...]
    ) -> None:
        """Fold a journal onto this (pristine) ladder: the checkpoint's
        counters and anchor, then each later record's."""
        if self.injector is None:
            return
        if cp is not None:
            self.forced_red_cycles = int(cp.forced_red_cycles)
            self.estimated_cycles = int(cp.estimated_cycles)
            self.blackout_streak = int(cp.blackout_streak)
            self.last_metered_power = cp.last_metered_power
            self.last_metered_snapshot = cp.last_metered_snapshot
        for r in records:
            report = r.report
            if report.metered:
                self.last_metered_power = report.power_w
                self.last_metered_snapshot = r.snapshot
            else:
                self.estimated_cycles += 1
            if report.forced_red:
                self.forced_red_cycles += 1
            self.blackout_streak = int(r.blackout_streak)
