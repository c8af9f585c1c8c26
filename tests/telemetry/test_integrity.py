"""Tests for the telemetry validation/trust/quarantine pipeline."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, run_experiment
from repro.telemetry import (
    IntegrityConfig,
    MeterIntegrityMonitor,
    TelemetryValidator,
)
from repro.telemetry import integrity

N = 4


def _validator(estimator, node_spec, config=None):
    return TelemetryValidator(
        config or IntegrityConfig(),
        estimator,
        np.arange(N, dtype=np.int64),
        node_spec.top_level,
    )


def _sweep(validator, node_spec, cpu=0.5, mem=0.3, nic=0.1, fresh=True, busy=True):
    """Validate one uniform sweep, with optional per-node overrides."""
    top = node_spec.top_level
    level = np.full(N, top, dtype=np.int64)
    cpu_util = np.asarray(cpu, dtype=np.float64) * np.ones(N)
    mem_frac = np.asarray(mem, dtype=np.float64) * np.ones(N)
    nic_frac = np.asarray(nic, dtype=np.float64) * np.ones(N)
    job_id = np.where(busy, 0, -1) * np.ones(N, dtype=np.int64)
    fresh_mask = np.asarray(fresh, dtype=bool) & np.ones(N, dtype=bool)
    return validator.validate(
        level, cpu_util, mem_frac, nic_frac, job_id, fresh_mask
    )


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_inverted_hysteresis_rejected():
    with pytest.raises(ConfigurationError):
        IntegrityConfig(quarantine_trust=0.9, release_trust=0.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trust_recovery": 1.5},
        {"quarantine_trust": 0.0},
    ],
)
def test_bad_knobs_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        IntegrityConfig(**kwargs)


# ----------------------------------------------------------------------
# Stage 1: garbage
# ----------------------------------------------------------------------
def test_clean_sweeps_reject_nothing_and_keep_full_trust(estimator, node_spec):
    v = _validator(estimator, node_spec)
    for k in range(20):
        # Honest telemetry jitters a little every cycle.
        result = _sweep(v, node_spec, cpu=0.45 + 0.001 * k)
        assert not result.rejected.any()
        assert not result.quarantined.any()
    np.testing.assert_allclose(v.trust, 1.0)
    assert v.rejected_samples == 0


def test_nan_sample_is_hard_rejected(estimator, node_spec):
    v = _validator(estimator, node_spec)
    cpu = np.full(N, 0.5)
    cpu[1] = np.nan
    result = _sweep(v, node_spec, cpu=cpu)
    np.testing.assert_array_equal(result.rejected, [False, True, False, False])
    assert v.rejected_samples == 1
    assert v.trust[1] == pytest.approx(1.0 - integrity.HARD_PENALTY)


def test_negative_and_superunity_samples_are_hard_rejected(estimator, node_spec):
    v = _validator(estimator, node_spec)
    cpu = np.array([0.5, -0.4, 1.5, 0.5])
    result = _sweep(v, node_spec, cpu=cpu)
    np.testing.assert_array_equal(result.rejected, [False, True, True, False])


def test_stale_rows_are_never_charged(estimator, node_spec):
    v = _validator(estimator, node_spec)
    cpu = np.full(N, np.nan)  # garbage, but not fresh
    result = _sweep(v, node_spec, cpu=cpu, fresh=False)
    assert not result.rejected.any()
    np.testing.assert_allclose(v.trust, 1.0)


# ----------------------------------------------------------------------
# Stage 2: DVFS power-envelope cross-check
# ----------------------------------------------------------------------
def test_envelope_breach_is_hard_rejected(estimator, node_spec, monkeypatch):
    # Wide range margin lets the sample through stage 1; a zero envelope
    # margin then catches the impossible predicted power.
    monkeypatch.setattr(integrity, "RANGE_MARGIN", 0.30)
    monkeypatch.setattr(integrity, "ENVELOPE_MARGIN", 0.0)
    v = _validator(estimator, node_spec)
    cpu = np.array([0.5, 1.25, 0.5, 0.5])
    mem = np.array([0.3, 1.25, 0.3, 0.3])
    nic = np.array([0.1, 1.25, 0.1, 0.1])
    result = _sweep(v, node_spec, cpu=cpu, mem=mem, nic=nic)
    np.testing.assert_array_equal(result.rejected, [False, True, False, False])


# ----------------------------------------------------------------------
# Stage 3: rate-of-change (soft)
# ----------------------------------------------------------------------
def test_spike_charges_soft_penalty_without_rejecting(estimator, node_spec):
    v = _validator(estimator, node_spec)
    _sweep(v, node_spec, cpu=0.2)
    cpu = np.array([0.2, 0.95, 0.2, 0.2])  # node 1 jumps by 0.75
    result = _sweep(v, node_spec, cpu=cpu)
    assert not result.rejected.any()
    assert v.trust[1] == pytest.approx(1.0 - integrity.SOFT_PENALTY)
    assert v.trust[0] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Stage 4: stuck-at (soft)
# ----------------------------------------------------------------------
def test_frozen_busy_sensor_bleeds_trust(estimator, node_spec, monkeypatch):
    monkeypatch.setattr(integrity, "STUCK_WINDOW", 3)
    v = _validator(estimator, node_spec)
    for _ in range(6):  # bit-identical busy readings, cycle after cycle
        _sweep(v, node_spec, cpu=0.5)
    # Runs of 3..5 repeats each charged the stuck penalty.
    assert v.trust[0] == pytest.approx(1.0 - 3 * integrity.STUCK_PENALTY)


def test_saturated_sensor_is_exempt_from_stuck_detection(
    estimator, node_spec, monkeypatch
):
    monkeypatch.setattr(integrity, "STUCK_WINDOW", 3)
    v = _validator(estimator, node_spec)
    for _ in range(8):  # pinned at the ceiling: clipping, not corruption
        _sweep(v, node_spec, cpu=1.0)
    np.testing.assert_allclose(v.trust, 1.0)


def test_idle_node_is_exempt_from_stuck_detection(estimator, node_spec, monkeypatch):
    monkeypatch.setattr(integrity, "STUCK_WINDOW", 3)
    v = _validator(estimator, node_spec)
    for _ in range(8):  # idle nodes legitimately sit at a constant floor
        _sweep(v, node_spec, cpu=0.02, busy=False)
    np.testing.assert_allclose(v.trust, 1.0)


# ----------------------------------------------------------------------
# Quarantine state machine
# ----------------------------------------------------------------------
def test_quarantine_entry_release_and_hysteresis(estimator, node_spec, monkeypatch):
    monkeypatch.setattr(integrity, "MIN_QUARANTINE_CYCLES", 3)
    cfg = IntegrityConfig(trust_recovery=0.25)
    v = _validator(estimator, node_spec, cfg)
    bad = np.array([0.5, np.nan, 0.5, 0.5])
    result = _sweep(v, node_spec, cpu=bad)
    assert not result.quarantined.any()  # trust 0.65: suspicious, not out
    result = _sweep(v, node_spec, cpu=bad)
    result = _sweep(v, node_spec, cpu=bad)  # trust hits 0 -> quarantined
    np.testing.assert_array_equal(
        result.quarantined, [False, True, False, False]
    )
    assert v.quarantine_entries == 1
    assert v.quarantined_nodes > 0

    # Clean data heals trust, but release also needs the minimum dwell.
    result = _sweep(v, node_spec, cpu=0.40)
    assert result.quarantined[1]
    for k in range(3):
        result = _sweep(v, node_spec, cpu=0.41 + 0.001 * k)
    assert not result.quarantined.any()
    assert v.quarantined_node_cycles >= 3


def test_release_requires_trust_above_hysteresis(estimator, node_spec, monkeypatch):
    monkeypatch.setattr(integrity, "MIN_QUARANTINE_CYCLES", 1)
    cfg = IntegrityConfig(trust_recovery=0.01)
    v = _validator(estimator, node_spec, cfg)
    bad = np.array([0.5, np.nan, 0.5, 0.5])
    for _ in range(3):
        _sweep(v, node_spec, cpu=bad)
    assert v.quarantined_nodes > 0
    # 0.01/cycle cannot clear release_trust=0.9 in a handful of cycles.
    for k in range(10):
        result = _sweep(v, node_spec, cpu=0.45 + 0.001 * k)
    assert result.quarantined[1]


# ----------------------------------------------------------------------
# Meter integrity monitor
# ----------------------------------------------------------------------
def test_meter_distrust_needs_a_persistent_residual(monkeypatch):
    monkeypatch.setattr(integrity, "METER_DISTRUST_CYCLES", 3)
    monkeypatch.setattr(integrity, "METER_RECOVERY_CYCLES", 2)
    mon = MeterIntegrityMonitor()
    # One bad cycle is noise, not byzantine behaviour.
    assert mon.filter(500.0, 1000.0, 1.0) == 500.0
    assert mon.filter(1000.0, 1000.0, 2.0) == 1000.0
    assert not mon.distrusted
    # Three consecutive high-residual cycles flip it.
    for t in (3.0, 4.0):
        assert mon.filter(500.0, 1000.0, t) == 500.0
    assert mon.filter(500.0, 1000.0, 5.0) == 1000.0  # distrusted: max()
    assert mon.distrusted
    assert mon.distrust_events == 1


def test_distrusted_meter_recovers_after_clean_streak(monkeypatch):
    monkeypatch.setattr(integrity, "METER_DISTRUST_CYCLES", 2)
    monkeypatch.setattr(integrity, "METER_RECOVERY_CYCLES", 2)
    mon = MeterIntegrityMonitor()
    for t in (1.0, 2.0):
        mon.filter(500.0, 1000.0, t)
    assert mon.distrusted
    # While distrusted the returned power never under-estimates.
    assert mon.filter(980.0, 1000.0, 3.0) == 1000.0
    assert mon.filter(1005.0, 1000.0, 4.0) == 1005.0
    assert not mon.distrusted
    # Counted: the entry cycle and the first recovery-streak cycle.
    assert mon.distrusted_cycles == 2
    assert mon.filter(980.0, 1000.0, 5.0) == 980.0


@pytest.mark.parametrize("candidate_size", [16, 8])
def test_honest_meter_is_never_distrusted_by_a_partial_candidate_set(
    candidate_size,
):
    """A partial candidate set's Formula (1) sum leaves out the other
    nodes' draw, so an honest meter reads above it every cycle: the
    cross-check stands down rather than distrust the meter (and freeze
    threshold learning) for the whole run."""
    config = ExperimentConfig.quick(
        num_nodes=32,
        seed=7,
        training_duration_s=200.0,
        run_duration_s=240.0,
        candidate_size=candidate_size,
        integrity=IntegrityConfig(),
    )
    assert run_experiment(config, "mpc").fault_stats.meter_distrusted_cycles == 0
