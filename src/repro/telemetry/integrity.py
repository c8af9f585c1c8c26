"""Telemetry-integrity defense: validation, trust, and quarantine.

The paper's Algorithm 1 trusts every profiling sample: Formula (1) turns
raw per-node readings straight into the cluster estimate that drives
green/yellow/red transitions and ``P_peak`` learning.  PR 1 hardened the
pipeline against *missing* data; this module hardens it against data
that keeps arriving but is **wrong** (:mod:`repro.faults.corruption`).

Every fresh sample passes a four-stage validation pipeline before it may
influence estimation:

1. **garbage** — NaN/inf, negative, or far-out-of-range utilizations
   (a utilization is physically confined to [0, 1]);
2. **DVFS power envelope** — the Formula (1) prediction for the sample
   at the node's known DVFS level must lie inside the physical envelope
   ``[P_idle(l), P_max(l)]`` (the model-residual cross-check: reported
   telemetry that predicts impossible power is lying);
3. **rate-of-change** — a per-cycle utilization step larger than any
   plausible workload transition;
4. **stuck-at** — a busy node whose readings repeat *exactly* over a
   sliding window (real utilization jitters every cycle; a frozen ADC
   does not).  Nodes pinned at the utilization ceiling are exempt —
   clipping at full scale is the one honest source of bit-identical
   readings, and a sensor latched there only over-reports power.

Stages 1–2 are **hard** failures: impossible on honest telemetry, so the
sample is rejected outright (the collector serves the node's last-known
-good row instead, and its staleness age grows).  Stages 3–4 are
**soft**: legitimate workloads occasionally step sharply, so these only
charge the node's *trust score*.  Hard failures charge a much larger
penalty; clean fresh samples slowly restore trust.

A node whose trust falls below the quarantine threshold is
**quarantined**: its rows in every snapshot are replaced by the
conservative worst-case envelope — full utilization at the node's known
DVFS level — so the cluster estimate can only *over*-estimate
(never-underestimate rule, the trust analogue of PR 1's
never-upgrade-on-stale clamp), its staleness is pinned to ``inf`` so the
degraded-mode ladder never upgrades it, and its inflated envelope power
ranks it first for degradation (force-eligible for target selection).
Release requires trust to recover above a hysteresis threshold and a
minimum quarantine dwell.

The :class:`MeterIntegrityMonitor` is the system-level analogue for the
byzantine *meter*: when the metered reading diverges from the validated
Formula (1) aggregate for several consecutive cycles, the meter is
distrusted and classification runs on ``max(meter, estimate)`` until the
residual closes again.  The cross-check runs only when the candidate set
covers the whole machine: a partial set's aggregate leaves out the
unmonitored nodes' draw, so even an honest meter would read above it.
While the meter is distrusted — or any node is quarantined — the
threshold learner ignores ``P_peak`` observations: thresholds learned
from lying sensors would poison every later cycle.

Quarantine state is deliberately **not** journaled for crash recovery
(:mod:`repro.ha`): a restored manager re-earns trust from scratch, which
is conservative in exactly the same direction as its recovery hold.

:class:`IntegrityDefense` is the layer one manager incarnation attaches:
its validator screens every sweep inside the collector, and its monitor
every meter reading at the cycle's meter stage, through
:func:`screen_metered_power`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.facade import Observability, resolve_obs
from repro.power.estimator import NodePowerEstimator
from repro.types import Seconds, Watts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sets import NodeSets

__all__ = [
    "IntegrityConfig",
    "IntegrityDefense",
    "MeterIntegrityMonitor",
    "ScreenedPower",
    "TelemetryValidator",
    "ValidationResult",
    "screen_metered_power",
]

#: Guard against division by a vanishing estimate in residual fractions.
_TINY_W = 1e-9

# The pipeline's fixed thresholds.  They are conservative in the
# false-positive direction: on honest telemetry under the default
# workload jitter no stage-1/2 check can fire at all, and the soft
# penalties are sized so occasional legitimate phase steps never drag a
# node anywhere near the quarantine threshold.

#: Slack beyond [0, 1] a utilization may report before stage 1 calls it
#: impossible (sensor quantisation).
RANGE_MARGIN = 0.05
#: Relative slack on the DVFS power envelope for the stage-2
#: model-residual cross-check.
ENVELOPE_MARGIN = 0.02
#: Per-cycle utilization step beyond which stage 3 charges a soft
#: penalty.
SPIKE_DELTA = 0.60
#: Consecutive exactly-repeating busy samples before stage 4 starts
#: charging penalties.
STUCK_WINDOW = 8
#: Repetition tolerance of stage 4 (bit-identical readings, allowing
#: only float-noise).
STUCK_EPSILON = 1e-9
#: Trust charged by a hard (stage 1–2) failure.
HARD_PENALTY = 0.35
#: Trust charged by a stage-3 spike event.
SOFT_PENALTY = 0.03
#: Trust charged per cycle a stage-4 stuck window persists.
STUCK_PENALTY = 0.08
#: Minimum quarantine dwell, cycles.
MIN_QUARANTINE_CYCLES = 30
#: Relative meter-vs-estimate residual beyond which a cycle counts
#: toward meter distrust.  Only meaningful when the candidate set covers
#: (nearly) the whole machine — the aggregate estimate of a partial
#: candidate set cannot vouch for unmonitored nodes.
METER_RESIDUAL_FRACTION = 0.10
#: Consecutive high-residual cycles before the meter is distrusted.
METER_DISTRUST_CYCLES = 5
#: Consecutive low-residual cycles before a distrusted meter is trusted
#: again.
METER_RECOVERY_CYCLES = 10


@dataclass(frozen=True)
class IntegrityConfig:
    """Trust knobs of the validation/trust/quarantine pipeline.

    Attributes:
        trust_recovery: Trust restored by one clean fresh sample.
        quarantine_trust: Trust below which a node is quarantined.
        release_trust: Trust a quarantined node must recover to be
            released (hysteresis; must exceed ``quarantine_trust``).
    """

    trust_recovery: float = 0.02
    quarantine_trust: float = 0.30
    release_trust: float = 0.90

    def __post_init__(self) -> None:
        if not 0.0 <= self.trust_recovery <= 1.0:
            raise ConfigurationError("trust_recovery must lie in [0, 1]")
        for name in ("quarantine_trust", "release_trust"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(f"{name} must lie in (0, 1]")
        if self.release_trust <= self.quarantine_trust:
            raise ConfigurationError(
                "release_trust must exceed quarantine_trust "
                "(the hysteresis band would be empty or inverted)"
            )


@dataclass(frozen=True)
class ValidationResult:
    """What the validator decided about one telemetry sweep.

    Masks are aligned with the sweep's node arrays.

    Attributes:
        rejected: Fresh samples that failed a hard check this cycle;
            the collector must serve those nodes from the last-known
            -good cache instead.
        quarantined: Nodes currently quarantined (after this cycle's
            entries and releases); the collector must replace their
            rows with the conservative envelope.
    """

    rejected: np.ndarray
    quarantined: np.ndarray


class TelemetryValidator:
    """Per-node validation pipeline, trust scores, and quarantine.

    One instance per collector; state arrays are aligned with the
    collector's candidate positions (entry ``k`` describes
    ``candidate_ids[k]``).

    Args:
        config: Trust knobs.
        estimator: The Formula (1) evaluator used for the stage-2
            envelope cross-check (shared with the manager).
        candidate_ids: The monitored candidate set.
        top_level: The cluster's highest DVFS level (level-range check).
        obs: Observability facade; trust gauges and rejection counters
            are mirrored when metrics are on, and each quarantine entry
            trips the flight recorder.
    """

    def __init__(
        self,
        config: IntegrityConfig,
        estimator: NodePowerEstimator,
        candidate_ids: np.ndarray,
        top_level: int,
        obs: Observability | None = None,
    ) -> None:
        self.config = config
        self._estimator = estimator
        self._ids = np.asarray(candidate_ids, dtype=np.int64).copy()
        self._top_level = int(top_level)
        n = len(self._ids)
        self._trust = np.ones(n, dtype=np.float64)
        self._quarantined = np.zeros(n, dtype=bool)
        self._quarantined_nodes = 0
        self._quarantine_entry_cycle = np.full(n, -1, dtype=np.int64)
        # Raw last fresh report per node (rows cpu, mem, nic), for the
        # rate/stuck stages.
        self._last = np.full((3, n), np.nan)
        self._stuck_run = np.zeros(n, dtype=np.int64)
        # Stage 2's bounds depend only on (level, node): Formula (1) at
        # zero and full load, one 1-D sweep (which every engine takes).
        levels = self._top_level + 1
        level = np.tile(np.arange(levels).repeat(n), 2)
        load = np.repeat([0.0, 1.0], levels * n)
        bounds = estimator.estimate_nodes(
            level, load, load, load, node_ids=np.tile(self._ids, 2 * levels)
        ).reshape(2, levels * n)
        # Flat: entry ``lv * n + k`` is level ``lv`` of candidate ``k``.
        self._env_floor = bounds[0] * (1.0 - ENVELOPE_MARGIN)
        self._env_ceil = bounds[1] * (1.0 + ENVELOPE_MARGIN)
        self._columns = np.arange(n)
        self._cycle = -1
        self._rejected_samples = 0
        self._quarantine_entries = 0
        self._quarantined_node_cycles = 0
        self._obs = resolve_obs(obs)
        self._trips_on = self._obs.flight.enabled
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Mirror trust/quarantine state as collected metric series."""
        obs = self._obs
        if not obs.metrics_on:
            return
        reg = obs.metrics
        reg.counter_func(
            "repro_corrupt_samples_rejected_total",
            "Fresh telemetry samples rejected by the hard validation stages",
            lambda: float(self._rejected_samples),
        )
        reg.counter_func(
            "repro_quarantine_entries_total",
            "Node quarantine entries",
            lambda: float(self._quarantine_entries),
        )
        reg.counter_func(
            "repro_quarantined_node_cycles_total",
            "Sum over cycles of the quarantined node count",
            lambda: float(self._quarantined_node_cycles),
        )
        reg.gauge_func(
            "repro_quarantined_nodes",
            "Nodes currently quarantined",
            lambda: float(self._quarantined_nodes),
        )
        reg.gauge_func(
            "repro_trust_min",
            "Lowest per-node telemetry trust score",
            lambda: float(self._trust.min()) if len(self._trust) else 1.0,
        )
        reg.gauge_func(
            "repro_trust_mean",
            "Mean per-node telemetry trust score",
            lambda: float(self._trust.mean()) if len(self._trust) else 1.0,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def trust(self) -> np.ndarray:
        """Per-node trust scores in [0, 1] (candidate-aligned copy)."""
        return self._trust.copy()

    @property
    def quarantined(self) -> np.ndarray:
        """Current quarantine mask (candidate-aligned copy)."""
        return self._quarantined.copy()

    @property
    def quarantined_nodes(self) -> int:
        """Number of nodes currently quarantined."""
        return self._quarantined_nodes

    @property
    def rejected_samples(self) -> int:
        """Fresh samples rejected by the hard stages so far."""
        return self._rejected_samples

    @property
    def quarantine_entries(self) -> int:
        """Quarantine entry events so far."""
        return self._quarantine_entries

    @property
    def quarantined_node_cycles(self) -> int:
        """Σ over cycles of the quarantined node count."""
        return self._quarantined_node_cycles

    # ------------------------------------------------------------------
    # The per-sweep pipeline
    # ------------------------------------------------------------------
    def validate(
        self,
        level: np.ndarray,
        cpu_util: np.ndarray,
        mem_frac: np.ndarray,
        nic_frac: np.ndarray,
        job_id: np.ndarray,
        fresh: np.ndarray,
    ) -> ValidationResult:
        """Run one sweep's fresh samples through the pipeline.

        Arrays are candidate-aligned; ``fresh`` marks rows that carry a
        new sensor reading this cycle (cache-served rows are the
        *collector's* substitutes, not sensor output, and are never
        charged against a node's trust).

        Returns:
            The hard-rejection mask and the post-update quarantine mask.
        """
        self._cycle += 1
        cfg = self.config
        if len(self._ids) == 0:
            empty = np.zeros(0, dtype=bool)
            return ValidationResult(rejected=empty, quarantined=empty.copy())
        # Rows cpu, mem, nic: each stage takes all three in one pass.
        readings = np.array((cpu_util, mem_frac, nic_frac))
        # inf - inf (a repeated or modelled infinite reading) would warn;
        # such a row fails stage 1 anyway.
        with np.errstate(invalid="ignore"):
            # Stage 1: garbage — NaN/inf or physically impossible
            # readings (np.isfinite is the NaN guard).
            sane = np.isfinite(readings)
            sane &= readings >= -RANGE_MARGIN
            sane &= readings <= 1.0 + RANGE_MARGIN
            hard = fresh & ~(
                sane[0] & sane[1] & sane[2] & (level >= 0) & (level <= self._top_level)
            )

            # Stage 2: DVFS power-envelope cross-check.  Evaluate Formula
            # (1) on the reported sample at the node's known level and
            # require the prediction inside [P_idle(l), P_max(l)] —
            # telemetry that predicts impossible power is lying even if
            # each field alone squeaks past stage 1.
            check = fresh & ~hard
            if np.count_nonzero(check):
                lv = np.minimum(np.maximum(level, 0), self._top_level)
                predicted = self._estimator.estimate_nodes(
                    lv, cpu_util, mem_frac, nic_frac, node_ids=self._ids
                )
                at = lv * len(self._ids) + self._columns
                outside = (predicted < self._env_floor[at]) | (
                    predicted > self._env_ceil[at]
                )
                outside |= ~np.isfinite(predicted)
                hard |= check & outside

            # Stage 3 (soft): rate-of-change spikes vs the last fresh
            # report.
            have_prev = np.isfinite(self._last[0])
            delta = np.abs(readings - self._last)
            spike = fresh & ~hard & have_prev & (delta[0] > SPIKE_DELTA)

            # Stage 4 (soft): stuck-at — a busy node repeating its
            # readings exactly.  Honest utilization jitters every cycle;
            # cache-served rows are excluded (``fresh`` gate), so repeats
            # here come from the sensor itself.
            same = delta <= STUCK_EPSILON
            same = have_prev & same[0] & same[1] & same[2]
            # A busy node pinned at the utilization *ceiling* repeats
            # honestly: load jitter above full scale clips to exactly
            # 1.0, so saturation is the one clean state with bit-identical
            # readings (high-cpu phases ride it for many cycles).  Exclude
            # it from tracking — a sensor latched at full scale only
            # over-reports power, which is already the conservative
            # direction (and exactly what the quarantine envelope would
            # substitute anyway).
            track = fresh & (job_id >= 0) & ~(cpu_util >= 1.0)
        # A tracked repeat extends the run; any other fresh sample ends
        # it; a row without a fresh sample keeps it.
        repeat = track & same
        self._stuck_run += repeat
        self._stuck_run *= repeat | ~fresh
        stuck = track & (self._stuck_run >= STUCK_WINDOW)

        # The raw fresh report (even a rejected one) becomes the
        # reference for the next cycle's rate/stuck stages: a stuck
        # sensor keeps repeating, and the pipeline must keep seeing it.
        np.copyto(self._last, readings, where=fresh)

        # Trust update: hard failures are near-certain corruption, soft
        # failures merely suspicious, clean fresh samples healing.
        penalty = hard * HARD_PENALTY + spike * SOFT_PENALTY + stuck * STUCK_PENALTY
        clean = fresh & ~(hard | spike | stuck)
        # np.clip's bounds, without its Python wrapper.
        self._trust = np.minimum(
            np.maximum(self._trust - penalty + clean * cfg.trust_recovery, 0.0), 1.0
        )

        # Quarantine state machine with hysteresis.
        entering = ~self._quarantined & (self._trust < cfg.quarantine_trust)
        entered = int(np.count_nonzero(entering))
        if entered:
            self._quarantined |= entering
            self._quarantine_entry_cycle[entering] = self._cycle
            self._quarantine_entries += entered
            if self._trips_on:
                self._obs.trip("quarantine_entry", float(self._cycle))
        if self._quarantined_nodes or entered:
            dwell = self._cycle - self._quarantine_entry_cycle
            self._quarantined &= ~(
                (dwell >= MIN_QUARANTINE_CYCLES)
                & (self._trust > cfg.release_trust)
            )
            self._quarantined_nodes = int(np.count_nonzero(self._quarantined))
        self._quarantined_node_cycles += self._quarantined_nodes

        self._rejected_samples += int(np.count_nonzero(hard))
        return ValidationResult(rejected=hard, quarantined=self._quarantined.copy())


class MeterIntegrityMonitor:
    """Cross-checks the system meter against the Formula (1) aggregate.

    The candidate aggregate is the only independent reference the
    manager has for the meter; when they diverge persistently the meter
    is distrusted and classification runs on ``max(meter, estimate)`` —
    the never-underestimate rule applied at system level.  The check is
    sharp only when the candidate set covers the whole machine: against
    a partial candidate set's estimate even an honest meter shows a
    residual above :data:`METER_RESIDUAL_FRACTION`, so
    :class:`IntegrityDefense` feeds it only for a whole-machine set.

    Args:
        obs: Observability facade; a distrust transition trips the
            flight recorder.
    """

    def __init__(self, obs: Observability | None = None) -> None:
        self._distrusted = False
        self._bad_streak = 0
        self._good_streak = 0
        self._distrust_events = 0
        self._distrusted_cycles = 0
        self._obs = resolve_obs(obs)
        self._trips_on = self._obs.flight.enabled
        if self._obs.metrics_on:
            self._obs.metrics.gauge_func(
                "repro_meter_distrusted",
                "Whether the system meter is currently distrusted (0/1)",
                lambda: 1.0 if self._distrusted else 0.0,
            )
            self._obs.metrics.counter_func(
                "repro_meter_distrusted_cycles_total",
                "Cycles run with the system meter distrusted",
                lambda: float(self._distrusted_cycles),
            )

    @property
    def distrusted(self) -> bool:
        """Whether the meter is currently distrusted."""
        return self._distrusted

    @property
    def distrust_events(self) -> int:
        """Distinct distrust episodes entered so far."""
        return self._distrust_events

    @property
    def distrusted_cycles(self) -> int:
        """Cycles spent with the meter distrusted so far."""
        return self._distrusted_cycles

    def filter(self, metered_w: float, estimate_w: float, now: float) -> float:
        """Observe one metered cycle; return the power to act on.

        While the meter is trusted this returns ``metered_w`` unchanged
        (bit-identical to the undefended path); while distrusted it
        returns ``max(metered_w, estimate_w)``.
        """
        basis = max(abs(estimate_w), _TINY_W)
        residual = abs(metered_w - estimate_w) / basis
        high = residual > METER_RESIDUAL_FRACTION
        if not self._distrusted:
            self._bad_streak = self._bad_streak + 1 if high else 0
            if self._bad_streak >= METER_DISTRUST_CYCLES:
                self._distrusted = True
                self._distrust_events += 1
                self._good_streak = 0
                if self._trips_on:
                    self._obs.trip("meter_distrust", now)
        else:
            self._good_streak = 0 if high else self._good_streak + 1
            if self._good_streak >= METER_RECOVERY_CYCLES:
                self._distrusted = False
                self._bad_streak = 0
        if self._distrusted:
            self._distrusted_cycles += 1
            return max(metered_w, estimate_w)
        return metered_w


class IntegrityDefense:
    """The telemetry-integrity layer of one manager incarnation.

    Args:
        config: Trust knobs.
        estimator: The manager's Formula (1) evaluator.
        sets: The node sets; the validator screens the candidate set.
        top_level: The cluster's highest DVFS level.
        obs: Observability facade, shared by the validator and monitor.
    """

    def __init__(
        self,
        config: IntegrityConfig,
        estimator: NodePowerEstimator,
        sets: "NodeSets",
        top_level: int,
        obs: Observability | None = None,
    ) -> None:
        self.validator = TelemetryValidator(
            config, estimator, sets.candidates, top_level, obs=obs
        )
        self.monitor = MeterIntegrityMonitor(obs=obs)
        #: Whether the monitor cross-checks the meter: only against a
        #: candidate set covering every node is the Formula (1) sum the
        #: meter's peer; with any node unmonitored the check stands down
        #: and never distrusts.
        self.cross_checks = sets.whole_machine

    def fault_counts(self) -> dict[str, int]:
        """This layer's fields of :class:`~repro.faults.injector.FaultStats`."""
        validator = self.validator
        return {
            "corrupt_samples_rejected": validator.rejected_samples,
            "quarantine_entries": validator.quarantine_entries,
            "quarantined_node_cycles": validator.quarantined_node_cycles,
            "meter_distrusted_cycles": self.monitor.distrusted_cycles,
        }


@dataclass(frozen=True)
class ScreenedPower:
    """Outcome of screening one metered reading through the integrity layer.

    Attributes:
        power_w: The power the manager may act on this cycle.
        meter_distrusted: Whether the meter monitor currently distrusts
            the system meter.
        learnable: Whether the reading may feed ``P_peak`` learning —
            false while the meter is distrusted or any node is
            quarantined, since thresholds learned from lying sensors
            would poison every later cycle.
    """

    power_w: Watts
    meter_distrusted: bool
    learnable: bool


def screen_metered_power(
    defense: IntegrityDefense | None,
    metered_w: Watts,
    estimate_w: Callable[[], Watts],
    quarantine_active: bool,
    now: Seconds,
) -> ScreenedPower:
    """Screen one raw metered reading before it may drive control.

    This is the single trusted egress for system-meter readings (lint
    rule RL501): the manager hands the raw reading in and acts only on
    what comes out.  While the meter is trusted and nothing is
    quarantined the reading passes through bit-identically; with lying
    sensors in the aggregate the residual cross-check is meaningless, so
    the never-underestimate rule applies outright — act on whichever of
    meter and quarantine-inflated estimate is higher.  When the defense
    does not cross-check (a partial candidate set) an unquarantined
    reading passes through unchanged.

    Args:
        defense: The integrity layer whose monitor cross-checks the
            meter, or ``None`` when the run is undefended.
        metered_w: The raw (possibly byzantine) metered reading.
        estimate_w: Lazy Formula (1) candidate aggregate; only evaluated
            when a monitor is attached, so undefended runs skip the
            estimator sweep entirely.
        quarantine_active: Whether any node is currently quarantined.
        now: Simulated time, seconds.
    """
    power = metered_w
    distrusted = False
    if defense is not None:
        monitor = defense.monitor
        if quarantine_active:
            # With lying sensors in the aggregate the residual can no
            # longer testify for or against the meter: the monitor's
            # streaks are frozen and the never-underestimate rule is
            # applied outright.  The envelope only inflates, so this can
            # over-cap but never under-cap.
            power = max(power, estimate_w())
        elif defense.cross_checks:
            power = monitor.filter(power, estimate_w(), now)
        distrusted = monitor.distrusted
    return ScreenedPower(
        power_w=power,
        meter_distrusted=distrusted,
        learnable=not distrusted and not quarantine_active,
    )
