"""Sensor-corruption fault models: telemetry that lies.

PR 1's fault family (:mod:`repro.faults.models`) covers *missing* data —
dropped samples, dark meters, crashed agents.  This module covers the
nastier failure mode the paper's Algorithm 1 silently trusts away:
telemetry that keeps arriving but is **wrong**.  A stuck utilization
sensor or a drifting meter under-estimates cluster power, holds the
controller out of red, and lets the real cap be breached without a
single dropped sample to warn anyone.

A :class:`CorruptionScenario` is the frozen, validated description of
which corruption processes run and at what severity — the exact
analogue of :class:`~repro.faults.scenario.FaultScenario`, and
composable with it (a run can drop samples *and* corrupt the survivors).
The runtime state lives in :class:`SensorCorruptionModel`, which draws
from the dedicated ``faults.corruption`` substream so enabling
corruption never perturbs workload, policy, or other fault schedules.

Modelled corruptions (per-node, on the float utilization fields only —
reported DVFS levels stay in range so the power model's domain checks
are exercised by the validator, not crashed by the generator):

* **stuck-at-last** — the sensor freezes at its value from the onset
  cycle and repeats it forever;
* **stuck-at-constant** — the sensor reports :data:`STUCK_CONSTANT`
  (a stuck ADC reading 0 is the classic silent under-estimate);
* **additive drift** — a slow signed ramp, the calibration-loss model;
* **multiplicative gain error** — a constant scale factor;
* **transient spikes** — occasional large additive excursions;
* **garbage** — NaN / negative nonsense (a wedged agent's stale DMA);
* **byzantine meter** — the *system* wattmeter itself reports
  ``gain * true``, fooling the green/yellow/red classification directly
  rather than through Formula (1);
* **stuck meter** — the wattmeter freezes at its onset-cycle reading
  (a constant, plausible number: the hardest lie to notice);
* **drifting meter** — the wattmeter's gain decays a little every
  cycle, the calibration-loss model applied at system level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.errors import PRESET_HINT, FaultInjectionError

__all__ = ["CorruptionScenario", "SensorCorruptionModel"]

_STUCK_MODES = ("last", "constant")

#: What a ``"constant"``-mode stuck sensor reports, in utilization units:
#: a stuck ADC reading zero.
STUCK_CONSTANT = 0.0


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultInjectionError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class CorruptionScenario:
    """Severity of every modelled sensor-corruption process.

    All ``*_fraction`` knobs are the fraction of monitored nodes whose
    sensors suffer that corruption (the affected subsets are drawn once,
    deterministically, from the ``faults.corruption`` substream); all
    rates are per affected node per control cycle.

    Attributes:
        stuck_fraction: Fraction of nodes with a stuck utilization
            sensor.
        stuck_mode: ``"last"`` (freeze at the onset-cycle value) or
            ``"constant"`` (report :data:`STUCK_CONSTANT` forever).
        drift_fraction: Fraction of nodes whose sensors drift.
        drift_per_cycle: Signed additive drift per cycle in utilization
            units (negative drift under-reports — the dangerous case).
        gain_fraction: Fraction of nodes with a gain error.
        gain: Multiplicative factor those sensors apply (< 1
            under-reports).
        spike_fraction: Fraction of nodes subject to transient spikes.
        spike_rate: Per affected node, per-cycle spike probability.
        spike_magnitude: Additive size of a spike in utilization units
            (sign drawn per event).
        garbage_fraction: Fraction of nodes subject to garbage samples.
        garbage_rate: Per affected node, per-cycle garbage probability
            (the sample becomes NaN or a negative value, alternating).
        meter_gain: Multiplicative error of the byzantine system meter
            (1.0 = honest).
        meter_stuck: Whether the system meter freezes at its first
            post-onset reading and repeats it forever.
        meter_drift_per_cycle: Signed per-cycle decay of the meter's
            gain (negative under-reports more every cycle; applied on
            top of ``meter_gain``, clamped at a gain of 0).
        onset_cycle: Control cycle at which every corruption process
            switches on (before it all sensors are honest).
    """

    stuck_fraction: float = 0.0
    stuck_mode: str = "last"
    drift_fraction: float = 0.0
    drift_per_cycle: float = 0.0
    gain_fraction: float = 0.0
    gain: float = 1.0
    spike_fraction: float = 0.0
    spike_rate: float = 0.0
    spike_magnitude: float = 0.5
    garbage_fraction: float = 0.0
    garbage_rate: float = 0.0
    meter_gain: float = 1.0
    meter_stuck: bool = False
    meter_drift_per_cycle: float = 0.0
    onset_cycle: int = 0

    def __post_init__(self) -> None:
        _check_fraction("stuck_fraction", self.stuck_fraction)
        _check_fraction("drift_fraction", self.drift_fraction)
        _check_fraction("gain_fraction", self.gain_fraction)
        _check_fraction("spike_fraction", self.spike_fraction)
        _check_fraction("spike_rate", self.spike_rate)
        _check_fraction("garbage_fraction", self.garbage_fraction)
        _check_fraction("garbage_rate", self.garbage_rate)
        if self.stuck_mode not in _STUCK_MODES:
            raise FaultInjectionError(
                f"stuck_mode must be one of {', '.join(_STUCK_MODES)}; "
                f"got {self.stuck_mode!r}"
            )
        if not np.isfinite(self.drift_per_cycle):
            raise FaultInjectionError("drift_per_cycle must be finite")
        if self.gain < 0.0 or not np.isfinite(self.gain):
            raise FaultInjectionError("gain must be finite and non-negative")
        if self.spike_magnitude < 0.0 or not np.isfinite(self.spike_magnitude):
            raise FaultInjectionError(
                "spike_magnitude must be finite and non-negative"
            )
        if self.meter_gain < 0.0 or not np.isfinite(self.meter_gain):
            raise FaultInjectionError("meter_gain must be finite and non-negative")
        if not np.isfinite(self.meter_drift_per_cycle):
            raise FaultInjectionError("meter_drift_per_cycle must be finite")
        if self.onset_cycle < 0:
            raise FaultInjectionError("onset_cycle must be >= 0")
        if self.spike_fraction > 0.0 and self.spike_rate <= 0.0:
            raise FaultInjectionError(
                "spike_fraction > 0 but spike_rate is 0 "
                "(spiky nodes would never spike)"
            )
        if self.garbage_fraction > 0.0 and self.garbage_rate <= 0.0:
            raise FaultInjectionError(
                "garbage_fraction > 0 but garbage_rate is 0 "
                "(garbage nodes would never emit garbage)"
            )

    @property
    def enabled(self) -> bool:
        """Whether any corruption process is active."""
        gain_err = self.gain_fraction > 0.0 and abs(self.gain - 1.0) > 0.0
        drift = self.drift_fraction > 0.0 and abs(self.drift_per_cycle) > 0.0
        meter = (
            abs(self.meter_gain - 1.0) > 0.0
            or self.meter_stuck
            or abs(self.meter_drift_per_cycle) > 0.0
        )
        return (
            self.stuck_fraction > 0.0
            or drift
            or gain_err
            or self.spike_fraction > 0.0
            or self.garbage_fraction > 0.0
            or meter
        )

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def none(cls, **overrides: object) -> "CorruptionScenario":
        """Every sensor honest (the paper's implicit assumption)."""
        return replace(cls(), **overrides)  # type: ignore[arg-type]

    @classmethod
    def stuck_at(cls, **overrides: object) -> "CorruptionScenario":
        """Sensors latch: a tenth of the fleet's utilization sensors
        stuck at zero, and the system wattmeter frozen at its onset
        reading — the classic silent under-estimate, at both levels."""
        base = cls(stuck_fraction=0.10, stuck_mode="constant", meter_stuck=True)
        return replace(base, **overrides)  # type: ignore[arg-type]

    @classmethod
    def drift(cls, **overrides: object) -> "CorruptionScenario":
        """Calibration loss: a fifth of the fleet's sensors drifting
        downward, and the system wattmeter's gain decaying 0.2% per
        cycle — everything under-reports a little more every cycle."""
        base = cls(
            drift_fraction=0.20,
            drift_per_cycle=-0.002,
            meter_drift_per_cycle=-0.002,
        )
        return replace(base, **overrides)  # type: ignore[arg-type]

    @classmethod
    def gain_error(cls, **overrides: object) -> "CorruptionScenario":
        """A fifth of the fleet reading 40% low — a miscalibrated
        sensor batch."""
        base = cls(gain_fraction=0.20, gain=0.6)
        return replace(base, **overrides)  # type: ignore[arg-type]

    @classmethod
    def spikes(cls, **overrides: object) -> "CorruptionScenario":
        """Transient electrical spikes on a tenth of the fleet."""
        base = cls(spike_fraction=0.10, spike_rate=0.05, spike_magnitude=0.8)
        return replace(base, **overrides)  # type: ignore[arg-type]

    @classmethod
    def garbage(cls, **overrides: object) -> "CorruptionScenario":
        """NaN / negative garbage from a twentieth of the fleet."""
        base = cls(garbage_fraction=0.05, garbage_rate=0.20)
        return replace(base, **overrides)  # type: ignore[arg-type]

    @classmethod
    def byzantine_meter(cls, **overrides: object) -> "CorruptionScenario":
        """The system wattmeter reads 25% low — the one corruption that
        fools the green/yellow/red classification directly."""
        base = cls(meter_gain=0.75)
        return replace(base, **overrides)  # type: ignore[arg-type]

    @classmethod
    def preset_names(cls) -> tuple[str, ...]:
        """Names accepted by :meth:`preset`, sorted."""
        return tuple(sorted(_PRESETS))

    @classmethod
    def preset(cls, name: str, **overrides: object) -> "CorruptionScenario":
        """Look up a named preset, with a friendly error on a typo.

        Raises:
            FaultInjectionError: for an unknown preset name, listing the
                available presets instead of surfacing a bare KeyError.
        """
        try:
            factory = _PRESETS[name]
        except KeyError:
            raise FaultInjectionError(
                f"unknown corruption preset {name!r}; available "
                f"presets: {', '.join(cls.preset_names())} "
                f"({PRESET_HINT})"
            ) from None
        return factory(**overrides)


#: Registry behind :meth:`CorruptionScenario.preset` (and the CLI
#: ``--corruption`` choices) — add new presets here so every consumer
#: sees them.
_PRESETS: dict[str, Callable[..., CorruptionScenario]] = {
    "none": CorruptionScenario.none,
    "stuck-at": CorruptionScenario.stuck_at,
    "drift": CorruptionScenario.drift,
    "gain-error": CorruptionScenario.gain_error,
    "spikes": CorruptionScenario.spikes,
    "garbage": CorruptionScenario.garbage,
    "byzantine-meter": CorruptionScenario.byzantine_meter,
}


class SensorCorruptionModel:
    """Runtime corruption processes for one experiment run.

    The affected node subsets are drawn once at construction (disjoint
    draws per corruption family over the same substream), so the set of
    lying sensors is a pure function of ``(root seed, scenario)``.
    Per-cycle randomness (spike timing, garbage timing, spike signs)
    comes from the same substream, advanced only for active processes.

    Args:
        scenario: The corruption severities to realise.
        rng: The model's dedicated random substream
            (``faults.corruption``).
        num_nodes: Cluster size.
    """

    def __init__(
        self,
        scenario: CorruptionScenario,
        rng: np.random.Generator,
        num_nodes: int,
    ) -> None:
        if num_nodes < 1:
            raise FaultInjectionError("num_nodes must be >= 1")
        self.scenario = scenario
        self._rng = rng
        self._num_nodes = int(num_nodes)
        self._cycle = -1
        self._corrupted_samples = 0
        self._corrupted_meter_readings = 0
        self._stuck_nodes = self._draw_nodes(scenario.stuck_fraction)
        self._drift_nodes = self._draw_nodes(scenario.drift_fraction)
        self._gain_nodes = self._draw_nodes(scenario.gain_fraction)
        self._spike_nodes = self._draw_nodes(scenario.spike_fraction)
        self._garbage_nodes = self._draw_nodes(scenario.garbage_fraction)
        # stuck-at-last latches: NaN until the sensor freezes.
        self._stuck_cpu = np.full(self._num_nodes, np.nan)
        self._stuck_mem = np.full(self._num_nodes, np.nan)
        self._stuck_nic = np.full(self._num_nodes, np.nan)
        self._stuck_meter_w = np.nan
        self._garbage_flip = False

    def _draw_nodes(self, fraction: float) -> np.ndarray:
        """Boolean membership mask for one corruption family."""
        mask = np.zeros(self._num_nodes, dtype=bool)
        count = int(round(fraction * self._num_nodes))
        if fraction > 0.0:
            count = max(count, 1)
        if count > 0:
            chosen = self._rng.choice(self._num_nodes, size=count, replace=False)
            mask[chosen] = True
        return mask

    # ------------------------------------------------------------------
    # The cycle clock
    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        """Index of the current control cycle (-1 before the first)."""
        return self._cycle

    @property
    def active(self) -> bool:
        """Whether the onset cycle has been reached."""
        return self._cycle >= self.scenario.onset_cycle

    def begin_cycle(self) -> None:
        """Advance the corruption clock one control cycle."""
        self._cycle += 1

    # ------------------------------------------------------------------
    # Corruption application
    # ------------------------------------------------------------------
    @property
    def corrupted_samples(self) -> int:
        """Total node samples corrupted so far."""
        return self._corrupted_samples

    @property
    def corrupted_meter_readings(self) -> int:
        """Total system-meter readings corrupted so far."""
        return self._corrupted_meter_readings

    def corrupt_arrays(
        self,
        node_ids: np.ndarray,
        cpu_util: np.ndarray,
        mem_frac: np.ndarray,
        nic_frac: np.ndarray,
    ) -> np.ndarray:
        """Corrupt a telemetry sweep **in place**.

        Args:
            node_ids: Monitored node ids, aligned with the value arrays.
            cpu_util: Reported CPU utilizations (mutated).
            mem_frac: Reported memory-access fractions (mutated).
            nic_frac: Reported NIC utilizations (mutated).

        Returns:
            Boolean mask (aligned with ``node_ids``) of rows whose
            values were altered this cycle.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        touched = np.zeros(len(ids), dtype=bool)
        if not self.active or len(ids) == 0:
            return touched
        sc = self.scenario
        cycles_on = self._cycle - sc.onset_cycle
        # Gain error first: a miscalibrated sensor scales the true value.
        gmask = self._gain_nodes[ids]
        if gmask.any():
            for values in (cpu_util, mem_frac, nic_frac):
                values[gmask] *= sc.gain
            touched |= gmask
        # Additive drift: grows with cycles since onset.
        dmask = self._drift_nodes[ids]
        if dmask.any():
            offset = sc.drift_per_cycle * float(cycles_on + 1)
            for values in (cpu_util, mem_frac, nic_frac):
                values[dmask] += offset
            touched |= dmask
        # Transient spikes: per-node per-cycle events with random sign.
        smask = self._spike_nodes[ids]
        if smask.any() and sc.spike_rate > 0.0:
            events = smask & (self._rng.random(len(ids)) < sc.spike_rate)
            if events.any():
                signs = np.where(
                    self._rng.random(int(events.sum())) < 0.5, -1.0, 1.0
                )
                cpu_util[events] += signs * sc.spike_magnitude
                touched |= events
        # Garbage: NaN / negative nonsense, alternating per event batch.
        bmask = self._garbage_nodes[ids]
        if bmask.any() and sc.garbage_rate > 0.0:
            events = bmask & (self._rng.random(len(ids)) < sc.garbage_rate)
            if events.any():
                junk = np.nan if self._garbage_flip else -1.0
                self._garbage_flip = not self._garbage_flip
                for values in (cpu_util, mem_frac, nic_frac):
                    values[events] = junk
                touched |= events
        # Stuck-at last: freeze every stuck sensor at its first
        # post-onset value (after the other corruptions, as a real stuck
        # ADC would latch whatever it last digitised).
        tmask = self._stuck_nodes[ids]
        if tmask.any():
            if sc.stuck_mode == "constant":
                for values in (cpu_util, mem_frac, nic_frac):
                    values[tmask] = STUCK_CONSTANT
            else:
                stuck_ids = ids[tmask]
                latch = np.isnan(self._stuck_cpu[stuck_ids])
                if latch.any():
                    fresh = stuck_ids[latch]
                    self._stuck_cpu[fresh] = cpu_util[tmask][latch]
                    self._stuck_mem[fresh] = mem_frac[tmask][latch]
                    self._stuck_nic[fresh] = nic_frac[tmask][latch]
                cpu_util[tmask] = self._stuck_cpu[stuck_ids]
                mem_frac[tmask] = self._stuck_mem[stuck_ids]
                nic_frac[tmask] = self._stuck_nic[stuck_ids]
            touched |= tmask
        self._corrupted_samples += int(touched.sum())
        return touched

    def corrupt_meter(self, reading_w: float) -> float:
        """Byzantine system-meter error on an available reading.

        A stuck meter latches the first post-onset reading (after any
        gain error — a real meter latches what it displays).
        Clamped at zero like every other meter path — even a lying
        wattmeter reports a physical (non-negative) number.
        """
        sc = self.scenario
        if not self.active:
            return reading_w
        gain = sc.meter_gain + sc.meter_drift_per_cycle * float(
            self._cycle - sc.onset_cycle
        )
        gain = max(0.0, gain)
        if gain == 1.0 and not sc.meter_stuck:
            return reading_w
        self._corrupted_meter_readings += 1
        corrupted = max(0.0, reading_w * gain)
        if sc.meter_stuck:
            if np.isnan(self._stuck_meter_w):
                self._stuck_meter_w = corrupted
            return self._stuck_meter_w
        return corrupted
