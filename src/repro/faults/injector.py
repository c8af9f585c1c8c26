"""The per-run fault injector: one object, one cycle-synchronous clock.

:class:`FaultInjector` assembles the four fault models of a
:class:`~repro.faults.scenario.FaultScenario` over an experiment's
:class:`~repro.sim.random.RandomSource` and exposes exactly the queries
the hardened consumers ask each control cycle:

* the **manager** calls :meth:`begin_cycle` first (advancing the meter
  and crash processes), then :meth:`meter_available` /
  :meth:`perturb_meter`;
* the **collector** calls :meth:`telemetry_drop_mask` once per sweep;
* the **actuator** calls :meth:`command_outcomes` for each batch of
  outgoing DVFS commands (including re-issues — a retry can be lost
  again).

Because every model draws from its own named substream
(``faults.telemetry``, ``faults.meter``, ``faults.actuation``,
``faults.crash``), the schedule is reproducible from the root seed and
creating an injector never perturbs workload or policy randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FaultInjectionError
from repro.faults.corruption import CorruptionScenario, SensorCorruptionModel
from repro.faults.models import (
    ActuationFaultModel,
    ControllerCrashModel,
    MeterFaultModel,
    NodeCrashModel,
    TelemetryFaultModel,
)
from repro.faults.scenario import FaultScenario
from repro.obs.facade import Observability, resolve_obs
from repro.sim.random import RandomSource

__all__ = ["FaultInjector", "FaultStats"]


@dataclass(frozen=True)
class FaultStats:
    """What the injector, the integrity layer and their consumers did
    to one run; a counter nothing in the run keeps reads 0.

    Attributes:
        dropped_samples: Telemetry samples lost (dropout + offline).
        meter_outages: Distinct meter outage bursts.
        meter_outage_cycles: Cycles spent with the meter down.
        node_crashes: Monitoring-plane crash events.
        offline_node_cycles: Σ over cycles of offline node count.
        commands_lost: DVFS commands that never landed on first issue.
        commands_retried: Re-issued commands that eventually landed.
        commands_abandoned: Commands dropped after exhausting retries.
        forced_red_cycles: Cycles the fail-safe ladder forced to red
            because of a candidate-set telemetry blackout.
        estimated_power_cycles: Cycles the manager ran on the Formula (1)
            fallback estimate instead of a metered reading.
        corrupted_samples: Node samples altered by the sensor-corruption
            models (:mod:`repro.faults.corruption`).
        corrupted_meter_readings: System-meter readings altered by the
            byzantine meter model.
        corrupt_samples_rejected: Fresh samples the telemetry-integrity
            pipeline rejected outright (hard validation failures).
        quarantine_entries: Node quarantine entry events.
        quarantined_node_cycles: Σ over cycles of the quarantined node
            count.
        meter_distrusted_cycles: Cycles run with the system meter
            distrusted by the integrity monitor.
        meter_clamped_readings: Meter readings the physical zero-watt
            clamp had to correct (the fault scenario's meter noise drew
            the reading negative).
    """

    dropped_samples: int = 0
    meter_outages: int = 0
    meter_outage_cycles: int = 0
    node_crashes: int = 0
    offline_node_cycles: int = 0
    commands_lost: int = 0
    commands_retried: int = 0
    commands_abandoned: int = 0
    forced_red_cycles: int = 0
    estimated_power_cycles: int = 0
    corrupted_samples: int = 0
    corrupted_meter_readings: int = 0
    corrupt_samples_rejected: int = 0
    quarantine_entries: int = 0
    quarantined_node_cycles: int = 0
    meter_distrusted_cycles: int = 0
    meter_clamped_readings: int = 0


class FaultInjector:
    """Runtime fault processes for one experiment run.

    Args:
        scenario: The fault rates to realise.
        rng: The run's root random source (substreams are spawned from
            it by name).
        num_nodes: Cluster size (for the crash model).
        obs: Observability facade; trips the flight recorder at fault
            onset (meter outage start, node crash) and mirrors the fault
            accounting as collected metric series.
        corruption: Optional sensor-corruption scenario
            (:mod:`repro.faults.corruption`); when enabled the injector
            also owns a :class:`SensorCorruptionModel` on the
            ``faults.corruption`` substream, advanced by the same cycle
            clock, and exposes :meth:`corrupt_telemetry` for the
            collector.  :meth:`perturb_meter` then applies the byzantine
            meter error after the additive noise.
    """

    def __init__(
        self,
        scenario: FaultScenario,
        rng: RandomSource,
        num_nodes: int,
        obs: Observability | None = None,
        corruption: CorruptionScenario | None = None,
    ) -> None:
        self.scenario = scenario
        self._telemetry = TelemetryFaultModel(
            rng.stream("faults.telemetry"), scenario.telemetry_dropout
        )
        self._meter = MeterFaultModel(
            rng.stream("faults.meter"),
            scenario.meter_outage_rate,
            scenario.meter_recovery_rate,
            scenario.meter_noise_fraction,
        )
        self._actuation = ActuationFaultModel(
            rng.stream("faults.actuation"),
            scenario.command_loss,
            scenario.command_delay,
            scenario.command_delay_cycles,
        )
        self._crash = NodeCrashModel(
            rng.stream("faults.crash"),
            num_nodes,
            scenario.node_crash_rate,
            scenario.node_recovery_rate,
        )
        self._controller = ControllerCrashModel(
            rng.stream("faults.controller"), scenario.controller_crash_rate
        )
        self._corruption: SensorCorruptionModel | None = None
        if corruption is not None and corruption.enabled:
            self._corruption = SensorCorruptionModel(
                corruption, rng.stream("faults.corruption"), num_nodes
            )
        self._cycle = -1
        self._last_now: float | None = None
        self._meter_up = True
        self._online = self._crash.online
        self._controller_crash_now = False
        self._obs = resolve_obs(obs)
        self._trips_on = self._obs.flight.enabled
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Mirror the fault accounting as collected metric series."""
        obs = self._obs
        if not obs.metrics_on:
            return
        reg = obs.metrics
        reg.counter_func(
            "repro_meter_outages_total",
            "Distinct meter outage bursts",
            lambda: float(self._meter.outages),
        )
        reg.counter_func(
            "repro_meter_outage_cycles_total",
            "Cycles spent with the meter down",
            lambda: float(self._meter.outage_cycles),
        )
        reg.counter_func(
            "repro_node_crashes_total",
            "Monitoring-plane crash events",
            lambda: float(self._crash.crashes),
        )
        reg.counter_func(
            "repro_offline_node_cycles_total",
            "Sum over cycles of the offline node count",
            lambda: float(self._crash.offline_node_cycles),
        )
        reg.counter_func(
            "repro_telemetry_dropout_samples_total",
            "Telemetry samples lost to i.i.d. dropout (excludes offline)",
            lambda: float(self._telemetry.dropped_samples),
        )
        reg.counter_func(
            "repro_meter_clamped_readings_total",
            "Meter readings the physical zero-watt clamp corrected",
            lambda: float(self._meter.clamped_readings),
        )
        # Corruption counters only exist when corruption is configured,
        # so plain fault runs keep their exact metric surface.
        if self._corruption is not None:
            reg.counter_func(
                "repro_corrupted_samples_total",
                "Node samples altered by the sensor-corruption models",
                lambda: float(self.corrupted_samples),
            )
            reg.counter_func(
                "repro_corrupted_meter_readings_total",
                "System-meter readings altered by the byzantine meter model",
                lambda: float(self.corrupted_meter_readings),
            )

    # ------------------------------------------------------------------
    # The cycle clock
    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        """Index of the current control cycle (-1 before the first)."""
        return self._cycle

    def begin_cycle(self, now: float) -> None:
        """Advance every burst process one control cycle.

        Must be called before any other query of the cycle.  Calling it
        again with a non-advancing ``now`` is a no-op, so a
        high-availability harness that advances the clock before
        dispatching to the active manager composes with a manager that
        also calls it — the fault processes still step exactly once per
        cycle.
        """
        if self._last_now is not None and now <= self._last_now:
            return
        self._last_now = float(now)
        self._cycle += 1
        meter_was_up = self._meter_up
        crashes_before = self._crash.crashes
        self._meter_up = self._meter.step()
        self._online = self._crash.step()
        self._controller_crash_now = self._controller.step()
        if self._corruption is not None:
            self._corruption.begin_cycle()
        if self._trips_on:
            if meter_was_up and not self._meter_up:
                self._obs.trip("meter_outage", now)
            if self._crash.crashes > crashes_before:
                self._obs.trip("node_crash", now)

    def _require_cycle(self) -> None:
        if self._cycle < 0:
            raise FaultInjectionError(
                "fault injector queried before the first begin_cycle()"
            )

    # ------------------------------------------------------------------
    # Queries (one consumer each)
    # ------------------------------------------------------------------
    def meter_available(self) -> bool:
        """Whether the system meter produces a reading this cycle."""
        self._require_cycle()
        return self._meter_up

    def perturb_meter(self, reading_w: float) -> float:
        """Additive sensor noise — then any byzantine meter error — on
        an available meter reading."""
        self._require_cycle()
        reading = self._meter.perturb(reading_w)
        if self._corruption is not None:
            reading = self._corruption.corrupt_meter(reading)
        return reading

    def corrupt_telemetry(
        self,
        node_ids: np.ndarray,
        cpu_util: np.ndarray,
        mem_frac: np.ndarray,
        nic_frac: np.ndarray,
    ) -> np.ndarray:
        """Corrupt a sweep's freshly sampled values **in place**.

        Called by the collector on the raw sample arrays before its
        dropout substitution (a dropped sample never reaches the wire,
        corrupted or not, and the cache only ever stores what the wire
        delivered).  Returns the mask of altered rows.
        """
        self._require_cycle()
        if self._corruption is None:
            return np.zeros(len(node_ids), dtype=bool)
        return self._corruption.corrupt_arrays(
            node_ids, cpu_util, mem_frac, nic_frac
        )

    def telemetry_drop_mask(self, node_ids: np.ndarray) -> np.ndarray:
        """Which monitored nodes lose their sample this cycle.

        A node's sample is lost either by i.i.d. dropout or because the
        node's monitoring plane is down.
        """
        self._require_cycle()
        ids = np.asarray(node_ids, dtype=np.int64)
        return self._telemetry.dropped_mask(len(ids)) | ~self._online[ids]

    def command_outcomes(
        self, node_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Classify a batch of outgoing DVFS commands.

        Returns:
            ``(lost, delayed)`` masks aligned with ``node_ids``.
            Commands to offline nodes are always lost.
        """
        self._require_cycle()
        ids = np.asarray(node_ids, dtype=np.int64)
        lost, delayed = self._actuation.classify(len(ids))
        offline = ~self._online[ids]
        lost |= offline
        delayed &= ~offline
        return lost, delayed

    @property
    def command_delay_cycles(self) -> int:
        """Lateness of delayed commands, cycles."""
        return self._actuation.delay_cycles

    def node_online(self, node_ids: np.ndarray) -> np.ndarray:
        """Availability mask for the given nodes this cycle."""
        self._require_cycle()
        return self._online[np.asarray(node_ids, dtype=np.int64)]

    def controller_crash_event(self) -> bool:
        """Whether the active controller crashes this cycle.

        Consumed by the :class:`~repro.ha.failover.HaController`; crash
        events drawn while no controller is active are simply ignored
        there (nothing is running that could die).
        """
        self._require_cycle()
        return self._controller_crash_now

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def dropped_samples(self) -> int:
        """Telemetry samples lost to i.i.d. dropout (excludes offline)."""
        return self._telemetry.dropped_samples

    @property
    def meter_outage_cycles(self) -> int:
        """Cycles spent with the meter down so far."""
        return self._meter.outage_cycles

    @property
    def meter_outages(self) -> int:
        """Distinct meter outage bursts so far."""
        return self._meter.outages

    @property
    def meter_clamped_readings(self) -> int:
        """Noisy meter readings the zero-watt clamp corrected so far."""
        return self._meter.clamped_readings

    @property
    def node_crashes(self) -> int:
        """Monitoring-plane crash events so far."""
        return self._crash.crashes

    @property
    def controller_crashes(self) -> int:
        """Controller crash events drawn so far (active or not)."""
        return self._controller.crashes

    @property
    def offline_node_cycles(self) -> int:
        """Σ over cycles of the offline node count."""
        return self._crash.offline_node_cycles

    @property
    def corruption_model(self) -> SensorCorruptionModel | None:
        """The sensor-corruption model (None when corruption is off)."""
        return self._corruption

    @property
    def corrupted_samples(self) -> int:
        """Node samples altered by the corruption models so far."""
        return 0 if self._corruption is None else self._corruption.corrupted_samples

    @property
    def corrupted_meter_readings(self) -> int:
        """System-meter readings altered by the byzantine model so far."""
        if self._corruption is None:
            return 0
        return self._corruption.corrupted_meter_readings
