"""Tests for sensor-corruption scenarios and the runtime model."""

import numpy as np
import pytest

from repro.errors import FaultInjectionError
from repro.faults import CorruptionScenario, SensorCorruptionModel
from repro.sim import RandomSource


def _model(scenario, seed=7, num_nodes=32):
    rng = RandomSource(seed=seed).stream("faults.corruption")
    return SensorCorruptionModel(scenario, rng, num_nodes)


def _sweep(model, num_nodes=32, cpu=0.5, mem=0.3, nic=0.1):
    """Advance one cycle and corrupt a uniform sweep; return the arrays."""
    model.begin_cycle()
    ids = np.arange(num_nodes, dtype=np.int64)
    cpu_util = np.full(num_nodes, cpu)
    mem_frac = np.full(num_nodes, mem)
    nic_frac = np.full(num_nodes, nic)
    touched = model.corrupt_arrays(ids, cpu_util, mem_frac, nic_frac)
    return touched, cpu_util, mem_frac, nic_frac


# ----------------------------------------------------------------------
# Scenario validation and presets
# ----------------------------------------------------------------------
def test_none_is_disabled_default():
    scenario = CorruptionScenario.none()
    assert not scenario.enabled
    assert scenario == CorruptionScenario()


@pytest.mark.parametrize(
    "name", [n for n in CorruptionScenario.preset_names() if n != "none"]
)
def test_every_named_preset_is_enabled(name):
    assert CorruptionScenario.preset(name).enabled


def test_unknown_preset_lists_the_catalogue():
    with pytest.raises(FaultInjectionError, match="stuck-at"):
        CorruptionScenario.preset("stuckat")


def test_preset_overrides_apply():
    scenario = CorruptionScenario.preset("drift", onset_cycle=60)
    assert scenario.onset_cycle == 60
    assert scenario.drift_fraction == pytest.approx(0.20)


@pytest.mark.parametrize(
    "field",
    [
        "stuck_fraction",
        "drift_fraction",
        "gain_fraction",
        "spike_fraction",
        "spike_rate",
        "garbage_fraction",
        "garbage_rate",
    ],
)
def test_fractions_validated(field):
    with pytest.raises(FaultInjectionError):
        CorruptionScenario(**{field: 1.5})
    with pytest.raises(FaultInjectionError):
        CorruptionScenario(**{field: -0.1})


def test_nonsense_rejected():
    with pytest.raises(FaultInjectionError):
        CorruptionScenario(stuck_mode="sideways")
    with pytest.raises(FaultInjectionError):
        CorruptionScenario(gain=-0.5)
    with pytest.raises(FaultInjectionError):
        CorruptionScenario(meter_gain=float("nan"))
    with pytest.raises(FaultInjectionError):
        CorruptionScenario(meter_drift_per_cycle=float("inf"))
    with pytest.raises(FaultInjectionError):
        CorruptionScenario(onset_cycle=-1)
    with pytest.raises(FaultInjectionError):
        CorruptionScenario(spike_fraction=0.1, spike_rate=0.0)
    with pytest.raises(FaultInjectionError):
        CorruptionScenario(garbage_fraction=0.1, garbage_rate=0.0)


def test_meter_only_scenarios_count_as_enabled():
    assert CorruptionScenario(meter_stuck=True).enabled
    assert CorruptionScenario(meter_drift_per_cycle=-0.001).enabled


# ----------------------------------------------------------------------
# Membership determinism
# ----------------------------------------------------------------------
def test_affected_subsets_are_seed_deterministic():
    scenario = CorruptionScenario.gain_error()
    a = _model(scenario, seed=11)
    b = _model(scenario, seed=11)
    c = _model(scenario, seed=12)
    np.testing.assert_array_equal(a._gain_nodes, b._gain_nodes)
    assert a._gain_nodes.sum() == c._gain_nodes.sum()  # size fixed by fraction


def test_small_fraction_still_afflicts_one_node():
    model = _model(CorruptionScenario(gain_fraction=0.01, gain=0.5), num_nodes=8)
    assert model._gain_nodes.sum() == 1


# ----------------------------------------------------------------------
# Onset gating
# ----------------------------------------------------------------------
def test_everything_honest_before_onset():
    scenario = CorruptionScenario.gain_error(onset_cycle=3)
    model = _model(scenario)
    for _ in range(3):  # cycles 0..2: honest
        touched, cpu, _, _ = _sweep(model)
        assert not touched.any()
        np.testing.assert_array_equal(cpu, np.full(32, 0.5))
    touched, cpu, _, _ = _sweep(model)  # cycle 3: corruption begins
    assert touched.any()
    assert model.corrupted_samples == int(touched.sum())


# ----------------------------------------------------------------------
# Per-family behaviour
# ----------------------------------------------------------------------
def test_gain_error_scales_affected_rows():
    model = _model(CorruptionScenario(gain_fraction=0.25, gain=0.6))
    touched, cpu, mem, nic = _sweep(model)
    np.testing.assert_allclose(cpu[touched], 0.5 * 0.6)
    np.testing.assert_allclose(mem[touched], 0.3 * 0.6)
    np.testing.assert_allclose(cpu[~touched], 0.5)


def test_drift_accumulates_per_cycle():
    model = _model(CorruptionScenario(drift_fraction=0.25, drift_per_cycle=-0.01))
    _sweep(model)
    touched, cpu, _, _ = _sweep(model)
    np.testing.assert_allclose(cpu[touched], 0.5 - 0.02)


def test_stuck_constant_pins_affected_rows():
    model = _model(CorruptionScenario(stuck_fraction=0.25, stuck_mode="constant"))
    touched, cpu, mem, nic = _sweep(model)
    for values in (cpu, mem, nic):
        np.testing.assert_allclose(values[touched], 0.0)


def test_stuck_at_last_latches_the_onset_value():
    model = _model(CorruptionScenario(stuck_fraction=0.25, stuck_mode="last"))
    touched, cpu, _, _ = _sweep(model, cpu=0.7)
    np.testing.assert_allclose(cpu[touched], 0.7)
    # The machine moves on; the stuck sensors do not.
    touched, cpu, _, _ = _sweep(model, cpu=0.2)
    np.testing.assert_allclose(cpu[touched], 0.7)
    np.testing.assert_allclose(cpu[~touched], 0.2)


def test_garbage_emits_nan_and_negative_values():
    model = _model(
        CorruptionScenario(garbage_fraction=0.5, garbage_rate=1.0), num_nodes=64
    )
    _, cpu_a, _, _ = _sweep(model, num_nodes=64)
    _, cpu_b, _, _ = _sweep(model, num_nodes=64)
    junk = np.concatenate([cpu_a, cpu_b])
    assert np.isnan(junk).any()
    assert (junk[~np.isnan(junk)] < 0.0).any()


def test_spikes_are_occasional_and_signed():
    model = _model(
        CorruptionScenario(
            spike_fraction=1.0, spike_rate=0.5, spike_magnitude=0.8
        ),
        num_nodes=64,
    )
    touched, cpu, _, _ = _sweep(model, num_nodes=64)
    assert 0 < touched.sum() < 64
    deltas = cpu[touched] - 0.5
    np.testing.assert_allclose(np.abs(deltas), 0.8)


# ----------------------------------------------------------------------
# Meter corruption
# ----------------------------------------------------------------------
def test_byzantine_meter_applies_gain():
    model = _model(CorruptionScenario(meter_gain=0.75))
    model.begin_cycle()
    assert model.corrupt_meter(1000.0) == pytest.approx(750.0)
    assert model.corrupted_meter_readings == 1


def test_meter_corruption_clamps_at_zero():
    model = _model(CorruptionScenario(meter_gain=0.1))
    model.begin_cycle()
    assert model.corrupt_meter(-100.0) == 0.0


def test_stuck_meter_latches_first_post_onset_reading():
    model = _model(CorruptionScenario(meter_stuck=True, onset_cycle=1))
    model.begin_cycle()
    assert model.corrupt_meter(900.0) == 900.0  # honest before onset
    model.begin_cycle()
    assert model.corrupt_meter(1000.0) == 1000.0  # latches here
    model.begin_cycle()
    assert model.corrupt_meter(1500.0) == 1000.0
    assert model.corrupt_meter(200.0) == 1000.0


def test_drifting_meter_decays_gain_each_cycle():
    model = _model(CorruptionScenario(meter_drift_per_cycle=-0.01))
    model.begin_cycle()
    assert model.corrupt_meter(1000.0) == pytest.approx(1000.0)
    model.begin_cycle()
    assert model.corrupt_meter(1000.0) == pytest.approx(990.0)
    model.begin_cycle()
    assert model.corrupt_meter(1000.0) == pytest.approx(980.0)


def test_corruption_error_is_configuration_error():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        CorruptionScenario(stuck_fraction=2.0)
