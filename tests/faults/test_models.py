"""Tests for the seeded stochastic fault models."""

import numpy as np
import pytest

from repro.errors import FaultInjectionError
from repro.faults import (
    ActuationFaultModel,
    MeterFaultModel,
    NodeCrashModel,
    TelemetryFaultModel,
)


def _rng(seed=42):
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# TelemetryFaultModel
# ----------------------------------------------------------------------
def test_telemetry_zero_dropout_drops_nothing():
    model = TelemetryFaultModel(_rng(), 0.0)
    mask = model.dropped_mask(64)
    assert not mask.any()
    assert model.dropped_samples == 0


def test_telemetry_full_dropout_drops_everything():
    model = TelemetryFaultModel(_rng(), 1.0)
    assert model.dropped_mask(64).all()
    assert model.dropped_samples == 64


def test_telemetry_dropout_rate_statistics():
    model = TelemetryFaultModel(_rng(), 0.2)
    total = sum(int(model.dropped_mask(100).sum()) for _ in range(200))
    assert total == pytest.approx(0.2 * 100 * 200, rel=0.1)


def test_telemetry_deterministic_across_seeds():
    a = TelemetryFaultModel(_rng(7), 0.3)
    b = TelemetryFaultModel(_rng(7), 0.3)
    for _ in range(10):
        np.testing.assert_array_equal(a.dropped_mask(32), b.dropped_mask(32))


def test_telemetry_validation():
    with pytest.raises(FaultInjectionError):
        TelemetryFaultModel(_rng(), 1.5)


# ----------------------------------------------------------------------
# MeterFaultModel
# ----------------------------------------------------------------------
def test_meter_never_fails_with_zero_rate():
    model = MeterFaultModel(_rng(), 0.0, 0.5, 0.0)
    assert all(model.step() for _ in range(100))
    assert model.outages == 0
    assert model.outage_cycles == 0


def test_meter_outage_bursts_and_accounting():
    model = MeterFaultModel(_rng(3), 0.2, 0.3, 0.0)
    ups = [model.step() for _ in range(500)]
    assert model.outages > 0
    assert model.outage_cycles == sum(1 for u in ups if not u)
    assert any(ups) and not all(ups)


def test_meter_mean_burst_length_is_geometric():
    # recovery_rate r => mean burst 1/r cycles.
    model = MeterFaultModel(_rng(11), 0.05, 0.25, 0.0)
    for _ in range(20_000):
        model.step()
    assert model.outage_cycles / model.outages == pytest.approx(4.0, rel=0.25)


def test_meter_noise_is_additive_and_clamped():
    model = MeterFaultModel(_rng(5), 0.0, 0.5, 0.10)
    readings = [model.perturb(1000.0) for _ in range(500)]
    assert min(readings) >= 0.0
    assert np.std(readings) == pytest.approx(100.0, rel=0.2)
    assert np.mean(readings) == pytest.approx(1000.0, rel=0.02)


def test_meter_zero_noise_identity():
    model = MeterFaultModel(_rng(), 0.0, 0.5, 0.0)
    assert model.perturb(123.4) == 123.4
    assert model.clamped_readings == 0


class _ScriptedNormal:
    """np.random.Generator stand-in with a scripted noise stream."""

    def __init__(self, draws):
        self._draws = list(draws)

    def normal(self, loc, scale):
        return self._draws.pop(0)


def test_noise_clamp_boundary_and_counter():
    # Draws land the noisy reading below, exactly at, and above zero:
    # only a strictly negative reading is unphysical and clamped.
    model = MeterFaultModel(_ScriptedNormal([-1500.0, -1000.0, 500.0]), 0.0, 0.5, 0.5)
    assert model.perturb(1000.0) == 0.0  # -500 W: clamped
    assert model.clamped_readings == 1
    assert model.perturb(1000.0) == 0.0  # exactly 0 W: physical, no clamp
    assert model.clamped_readings == 1
    assert model.perturb(1000.0) == 1500.0
    assert model.clamped_readings == 1


# ----------------------------------------------------------------------
# ActuationFaultModel
# ----------------------------------------------------------------------
def test_actuation_perfect_when_rates_zero():
    model = ActuationFaultModel(_rng(), 0.0, 0.0, 2)
    lost, delayed = model.classify(16)
    assert not lost.any() and not delayed.any()


def test_actuation_loss_takes_precedence_over_delay():
    model = ActuationFaultModel(_rng(9), 0.3, 0.3, 2)
    for _ in range(50):
        lost, delayed = model.classify(64)
        assert not (lost & delayed).any()


def test_actuation_rates_statistics():
    model = ActuationFaultModel(_rng(13), 0.1, 0.2, 2)
    n_lost = n_delayed = 0
    for _ in range(300):
        lost, delayed = model.classify(100)
        n_lost += int(lost.sum())
        n_delayed += int(delayed.sum())
    assert n_lost == pytest.approx(0.1 * 300 * 100, rel=0.1)
    assert n_delayed == pytest.approx(0.2 * 300 * 100, rel=0.1)


def test_actuation_empty_batch():
    model = ActuationFaultModel(_rng(), 0.5, 0.2, 2)
    lost, delayed = model.classify(0)
    assert lost.size == 0 and delayed.size == 0


# ----------------------------------------------------------------------
# NodeCrashModel
# ----------------------------------------------------------------------
def test_crash_all_online_with_zero_rate():
    model = NodeCrashModel(_rng(), 32, 0.0, 0.5)
    for _ in range(50):
        assert model.step().all()
    assert model.crashes == 0
    assert model.offline_node_cycles == 0


def test_crash_and_recovery_cycle():
    model = NodeCrashModel(_rng(21), 16, 0.05, 0.2)
    offline_seen = online_again = False
    crashed_once = np.zeros(16, dtype=bool)
    for _ in range(2000):
        online = model.step()
        down = ~online
        offline_seen = offline_seen or down.any()
        online_again = online_again or (crashed_once & online).any()
        crashed_once |= down
    assert offline_seen and online_again
    assert model.crashes > 0
    assert model.offline_node_cycles > 0


def test_crash_model_deterministic():
    a = NodeCrashModel(_rng(4), 8, 0.1, 0.3)
    b = NodeCrashModel(_rng(4), 8, 0.1, 0.3)
    for _ in range(100):
        np.testing.assert_array_equal(a.step(), b.step())
