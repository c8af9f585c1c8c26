"""Unit tests for the thermal model and reliability accounting."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.power import ReliabilityTracker, ThermalModel, failure_rate_multiplier


def test_starts_at_ambient():
    model = ThermalModel(4, ambient_c=25.0)
    np.testing.assert_allclose(model.temperature_c, 25.0)


def test_steady_state_linear_in_power():
    model = ThermalModel(2, ambient_c=22.0, thermal_resistance_c_per_w=0.1)
    ss = model.steady_state(np.array([100.0, 300.0]))
    np.testing.assert_allclose(ss, [32.0, 52.0])


def test_relaxation_towards_steady_state():
    model = ThermalModel(1, time_constant_s=100.0)
    power = np.array([300.0])
    t0 = model.temperature_c[0]
    model.step(power, dt=100.0)  # one time constant
    t_ss = model.steady_state(power)[0]
    # After one tau the gap closes by 1 - 1/e ≈ 63%.
    expected = t_ss + (t0 - t_ss) * np.exp(-1.0)
    assert model.temperature_c[0] == pytest.approx(expected)


def test_step_converges_to_steady_state():
    model = ThermalModel(1, time_constant_s=50.0)
    power = np.array([250.0])
    for _ in range(100):
        model.step(power, dt=10.0)
    assert model.temperature_c[0] == pytest.approx(model.steady_state(power)[0], abs=0.01)


def test_exact_update_independent_of_substepping():
    """The exponential update is exact: one 100 s step equals ten 10 s
    steps (a property the trapezoid-style update would not have)."""
    a = ThermalModel(1, time_constant_s=77.0)
    b = ThermalModel(1, time_constant_s=77.0)
    power = np.array([310.0])
    a.step(power, 100.0)
    for _ in range(10):
        b.step(power, 10.0)
    assert a.temperature_c[0] == pytest.approx(b.temperature_c[0], rel=1e-12)


def test_settle_jumps_to_equilibrium():
    model = ThermalModel(3)
    power = np.array([200.0, 300.0, 160.0])
    model.settle(power)
    assert model.temperature_c[1] > model.temperature_c[2]
    np.testing.assert_array_equal(model.temperature_c, model.steady_state(power))


def test_realistic_blade_temperatures():
    model = ThermalModel(1)
    idle = model.steady_state(np.array([160.0]))[0]
    busy = model.steady_state(np.array([340.0]))[0]
    assert 40.0 < idle < 55.0
    assert 65.0 < busy < 85.0


def test_thermal_validation():
    with pytest.raises(ConfigurationError):
        ThermalModel(0)
    with pytest.raises(ConfigurationError):
        ThermalModel(1, thermal_resistance_c_per_w=0.0)
    with pytest.raises(ConfigurationError):
        ThermalModel(1, time_constant_s=0.0)
    model = ThermalModel(2)
    with pytest.raises(ConfigurationError):
        model.step(np.array([100.0]), 1.0)  # shape mismatch
    with pytest.raises(ConfigurationError):
        model.step(np.array([100.0, 100.0]), 0.0)


def test_failure_rate_doubling_law():
    assert failure_rate_multiplier(50.0) == pytest.approx(1.0)
    assert failure_rate_multiplier(60.0) == pytest.approx(2.0)
    assert failure_rate_multiplier(70.0) == pytest.approx(4.0)
    assert failure_rate_multiplier(40.0) == pytest.approx(0.5)
    arr = failure_rate_multiplier(np.array([50.0, 60.0]))
    np.testing.assert_allclose(arr, [1.0, 2.0])


def test_reliability_tracker_accumulates():
    tracker = ReliabilityTracker(base_rate_per_node_hour=1.0, reference_c=50.0)
    temps = np.full(10, 50.0)
    tracker.accumulate(temps, dt=3600.0)  # 10 node-hours at reference
    assert tracker.expected_failures == pytest.approx(10.0)


def test_reliability_hotter_means_more_failures():
    cool = ReliabilityTracker(base_rate_per_node_hour=1.0)
    hot = ReliabilityTracker(base_rate_per_node_hour=1.0)
    cool.accumulate(np.full(4, 50.0), 3600.0)
    hot.accumulate(np.full(4, 60.0), 3600.0)
    assert hot.expected_failures == pytest.approx(2 * cool.expected_failures)
    assert hot.peak_temperature_c == 60.0


def test_reliability_validation():
    with pytest.raises(ConfigurationError):
        ReliabilityTracker(base_rate_per_node_hour=0.0)
    tracker = ReliabilityTracker()
    with pytest.raises(ConfigurationError):
        tracker.accumulate(np.array([50.0]), 0.0)


# ----------------------------------------------------------------------
# Branch breakers: trip-integral edge cases
# ----------------------------------------------------------------------
def _breaker(**overrides):
    from repro.power import BreakerThermalModel

    kwargs = dict(
        rated_w=np.array([100.0, 100.0]),
        trip_time_s=60.0,
        cool_time_s=300.0,
        cooldown_fraction=0.9,
    )
    kwargs.update(overrides)
    return BreakerThermalModel(**kwargs)


def test_breaker_exactly_rated_load_holds_the_integral():
    brk = _breaker()
    # Preheat branch 0 to u = 0.5 with a 2x overload for 30 s.
    brk.step(np.array([200.0, 0.0]), 30.0)
    assert brk.trip_integral[0] == pytest.approx(0.5)
    # Exactly-rated load sits in the hysteresis band: no heat, no cool.
    for _ in range(10):
        brk.step(np.array([100.0, 100.0]), 60.0)
    np.testing.assert_allclose(brk.trip_integral, [0.5, 0.0])
    assert not brk.tripped.any()


def test_breaker_no_cooling_inside_hysteresis_band():
    brk = _breaker()
    brk.step(np.array([200.0, 200.0]), 30.0)
    # 90 W = cooldown_fraction * rated: the band is inclusive at its
    # lower edge, so the integral still holds.
    brk.step(np.array([90.0, 95.0]), 600.0)
    np.testing.assert_allclose(brk.trip_integral, [0.5, 0.5])


def test_breaker_cools_below_the_band():
    brk = _breaker()
    brk.step(np.array([200.0, 200.0]), 30.0)
    brk.step(np.array([50.0, 50.0]), 150.0)  # half of cool_time_s
    np.testing.assert_allclose(brk.trip_integral, [0.0, 0.0])
    # Cooling clamps at zero rather than going negative.
    brk.step(np.array([0.0, 0.0]), 10_000.0)
    np.testing.assert_allclose(brk.trip_integral, [0.0, 0.0])


def test_breaker_inverse_time_characteristic():
    # A 2x overload trips in trip_time_s; a 1.5x overload needs twice
    # that exposure.
    fast = _breaker(rated_w=np.array([100.0]))
    slow = _breaker(rated_w=np.array([100.0]))
    assert fast.step(np.array([200.0]), 60.0).any()
    assert not slow.step(np.array([150.0]), 60.0).any()
    assert slow.step(np.array([150.0]), 60.0).any()


def test_breaker_latches_open_and_never_retrips():
    brk = _breaker(rated_w=np.array([100.0]))
    first = brk.step(np.array([300.0]), 60.0)
    assert first.any() and brk.trip_count == 1
    assert brk.trip_integral[0] == 1.0  # clamped at the latch
    # Further overload on an open breaker: no re-trip, no extra heat.
    again = brk.step(np.array([300.0]), 60.0)
    assert not again.any()
    assert brk.trip_count == 1
    assert brk.trip_integral[0] == 1.0
    # Nor does a cold interval drain a latched breaker.
    brk.step(np.array([0.0]), 10_000.0)
    assert brk.tripped[0]


@pytest.mark.parametrize(
    "overrides",
    [
        {"rated_w": np.array([[100.0]])},
        {"rated_w": np.array([100.0, -1.0])},
        {"trip_time_s": 0.0},
        {"cool_time_s": -1.0},
        {"cooldown_fraction": 0.0},
        {"cooldown_fraction": 1.5},
    ],
)
def test_breaker_invalid_config_rejected(overrides):
    with pytest.raises(ConfigurationError):
        _breaker(**overrides)


def test_breaker_step_validation():
    brk = _breaker()
    with pytest.raises(ConfigurationError):
        brk.step(np.array([0.0, 0.0]), 0.0)
    with pytest.raises(ConfigurationError):
        brk.step(np.array([0.0]), 1.0)


def test_breaker_tripped_mask_is_read_only_and_replaced_on_change():
    """``tripped`` hands out its mask without a copy: read-only, and a
    trip replaces it, so a mask read earlier keeps its value."""
    brk = _breaker()
    before = brk.tripped
    assert not before.flags.writeable
    with pytest.raises(ValueError):
        before[0] = True
    brk.step(np.array([300.0, 0.0]), 60.0)
    tripped = brk.tripped
    np.testing.assert_array_equal(tripped, [True, False])
    np.testing.assert_array_equal(before, [False, False])
    assert not tripped.flags.writeable
