"""The control cycle's observability projection.

A manager attaches one :class:`CycleProjection` when any instrument is
live.  It runs at the cycle's last boundary, after the record and the
journal, and projects the finished cycle three ways:

* **metrics** — the cycle-level series, collected at export time from
  state the manager and its layers already keep, plus one inline
  histogram observation of the target-set size (a distribution cannot
  be reconstructed from a callback);
* **the span tree** — ``cycle`` → ``collect`` / ``estimate`` /
  ``classify`` / ``select_targets`` / ``actuate`` / ``journal``, every
  attribute taken from the :class:`~repro.core.manager.CycleReport`, the
  snapshot size, the recovery hold and the journal outcome.  The
  attributes of an unattached layer (integrity, delivery) are left out;
* **the flight recorder's trip** on entry into the red state, after the
  tree is delivered so the dump includes the red cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.states import PowerState
from repro.obs.facade import Observability
from repro.obs.trace import AttrValue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.manager import CycleReport, PowerManager
    from repro.faults.degraded import DegradedModeLadder
    from repro.ha.journal import JournalLayer
    from repro.telemetry.collector import TelemetrySnapshot

__all__ = ["CycleProjection"]


class CycleProjection:
    """One manager incarnation's observability projection.

    Args:
        obs: The live facade.
        manager: The incarnation (counts, Algorithm 1, fencing epoch).
        ladder: Its degraded-mode ladder (forced-red and estimate counts).
        recovery: Its journal layer (recovery hold, journal outcome).
        integrity: Whether the integrity layer is attached.
        delivery: Whether the power-delivery layer is attached.
    """

    def __init__(
        self,
        obs: Observability,
        manager: "PowerManager",
        ladder: "DegradedModeLadder",
        recovery: "JournalLayer",
        integrity: bool,
        delivery: bool,
    ) -> None:
        self._obs = obs
        self._manager = manager
        self._recovery = recovery
        self._integrity = integrity
        self._delivery = delivery
        self._tracing = obs.tracing
        self._metrics_on = obs.metrics_on
        self._last_state: PowerState | None = None
        self._last_power_w = 0.0
        self._targets_hist = obs.metrics.histogram(
            "repro_targets_per_cycle",
            "Target-set size of each cycle's capping decision",
            buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )
        if self._metrics_on:
            self._register_metrics(manager, ladder, recovery)

    def _power_ratio_high(self) -> float:
        """Collected-gauge callback: last power over P_H (0 if unset)."""
        p_high = self._manager.thresholds.thresholds.p_high
        return self._last_power_w / p_high if p_high > 0.0 else 0.0

    def _register_metrics(
        self,
        manager: "PowerManager",
        ladder: "DegradedModeLadder",
        recovery: "JournalLayer",
    ) -> None:
        """Expose what the cycle already tracks as collected series."""
        reg = self._obs.metrics
        for state in PowerState:
            reg.counter_func(
                "repro_cycles_total",
                "Control cycles by classified power state",
                (lambda s=state: float(manager.state_count(s))),
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
            lambda: float(ladder.forced_red_cycles),
        )
        reg.counter_func(
            "repro_estimated_power_cycles_total",
            "Cycles run on the Formula (1) fallback estimate",
            lambda: float(ladder.estimated_cycles),
        )
        reg.counter_func(
            "repro_aux_fenced_batches_total",
            "Out-of-band actuation batches rejected by epoch fencing",
            lambda: float(manager.aux_fenced_batches),
        )
        reg.gauge_func(
            "repro_time_in_green",
            "Algorithm 1 steady-green counter Time_g",
            lambda: float(manager.capping.time_in_green),
        )
        reg.gauge_func(
            "repro_degraded_nodes",
            "Size of A_degraded (nodes currently capped)",
            lambda: float(len(manager.capping.degraded_nodes)),
        )
        reg.gauge_func(
            "repro_recovery_pending_nodes",
            "Candidates awaiting fresh telemetry under the recovery hold",
            lambda: float(len(recovery.pending)),
        )

    def hooks(self) -> dict[str, Callable[..., Any]]:
        """The projection's one hook, after the record."""
        return {"recorded": self.project}

    def project(
        self, cycle: int, report: "CycleReport", snapshot: "TelemetrySnapshot"
    ) -> None:
        """Project one finished cycle into every live instrument."""
        if self._metrics_on:
            self._last_power_w = report.power_w
            self._targets_hist.observe(float(report.decision.num_targets))
        if self._tracing:
            self._trace(cycle, report, len(snapshot.node_ids))
        state = report.state
        if state is PowerState.RED and self._last_state is not PowerState.RED:
            self._obs.trip("red_state_entry", report.time)
        self._last_state = state

    def _trace(self, cycle: int, report: "CycleReport", size: int) -> None:
        """Build the cycle's span tree and deliver it."""
        decision = report.decision
        act = report.actuation
        assert act is not None  # every managed cycle actuates
        pending = self._recovery.pending
        state = report.state.value
        action = decision.action.value
        estimate: dict[str, AttrValue] = {
            "metered": report.metered,
            "power_w": report.power_w,
        }
        if self._integrity:
            estimate["meter_distrusted"] = report.meter_distrusted
        classify: dict[str, AttrValue] = {
            "state": state,
            "p_low_w": report.p_low,
            "p_high_w": report.p_high,
            "forced_red": report.forced_red,
        }
        if self._delivery:
            classify["emergency_red"] = report.emergency_red
        tracer = self._obs.tracer
        root = tracer.begin_cycle(report.time)
        leaf = tracer.leaf
        leaf(
            "collect",
            {
                "size": size,
                "coverage": report.coverage,
                "recovery_pending": len(pending),
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
        recovery = self._recovery
        leaf(
            "journal",
            {"journaled": recovery.journaled, "compacted": recovery.compacted},
        )
        p_high = report.p_high
        root.attrs = {
            "cycle": cycle,
            "power_w": report.power_w,
            "ratio_high": (report.power_w / p_high) if p_high > 0.0 else None,
            "state": state,
            "metered": report.metered,
            "coverage": report.coverage,
            "forced_red": report.forced_red,
            "degraded": report.degraded,
            "action": action,
            "targets": decision.num_targets,
            "epoch": self._manager.fencing_epoch,
            "recovery_hold": bool(pending),
        }
        if self._integrity:
            root.attrs["quarantined_nodes"] = report.quarantined_nodes
        if self._delivery:
            root.attrs["capacity_w"] = report.capacity_w
            root.attrs["emergency_red"] = report.emergency_red
        tracer.end_cycle()
