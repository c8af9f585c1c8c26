"""Unit tests for P_max, energy and the ΔP×T overspend metric."""

import numpy as np
import pytest

from repro.errors import MetricError
from repro.metrics import (
    accumulated_overspend,
    average_power,
    energy_joules,
    peak_power,
)
from repro.metrics.power import overspend_energy_joules


def test_peak_power():
    t = np.arange(4, dtype=float)
    v = np.array([1.0, 5.0, 3.0, 2.0])
    assert peak_power(t, v) == 5.0


def test_energy_trapezoid():
    t = np.array([0.0, 2.0])
    v = np.array([10.0, 20.0])
    assert energy_joules(t, v) == pytest.approx(30.0)


def test_average_power():
    t = np.array([0.0, 2.0])
    v = np.array([10.0, 20.0])
    assert average_power(t, v) == pytest.approx(15.0)


def test_average_power_single_point():
    assert average_power(np.array([1.0]), np.array([42.0])) == 42.0


def test_overspend_zero_below_threshold():
    t = np.linspace(0, 10, 11)
    v = np.full(11, 50.0)
    assert overspend_energy_joules(t, v, 100.0) == 0.0
    assert accumulated_overspend(t, v, 100.0) == 0.0


def test_overspend_constant_excess():
    t = np.array([0.0, 10.0])
    v = np.array([150.0, 150.0])
    assert overspend_energy_joules(t, v, 100.0) == pytest.approx(500.0)
    # ΔP×T = 500 / 1500
    assert accumulated_overspend(t, v, 100.0) == pytest.approx(1.0 / 3.0)


def test_overspend_crossing_interpolated_upward():
    """Segment rising 50→150 over threshold 100: the above-threshold part
    is a triangle of height 50 over half the interval."""
    t = np.array([0.0, 2.0])
    v = np.array([50.0, 150.0])
    assert overspend_energy_joules(t, v, 100.0) == pytest.approx(0.5 * 50.0 * 1.0)


def test_overspend_crossing_interpolated_downward():
    t = np.array([0.0, 2.0])
    v = np.array([150.0, 50.0])
    assert overspend_energy_joules(t, v, 100.0) == pytest.approx(25.0)


def test_overspend_spike_shape():
    """Triangle spike 0→200→0 over threshold 100: excess area is the top
    triangle = ½·base·height with base the half-width above threshold."""
    t = np.array([0.0, 1.0, 2.0])
    v = np.array([0.0, 200.0, 0.0])
    # Each side crosses at 0.5 from the apex; area = 2 · (½·100·0.5) = 50.
    assert overspend_energy_joules(t, v, 100.0) == pytest.approx(50.0)


def test_overspend_exact_boundary_segment():
    """A segment exactly at the threshold contributes zero."""
    t = np.array([0.0, 1.0])
    v = np.array([100.0, 100.0])
    assert overspend_energy_joules(t, v, 100.0) == 0.0


def test_accumulated_overspend_monotone_in_threshold():
    rng = np.random.default_rng(0)
    t = np.arange(100, dtype=float)
    v = 100.0 + 20.0 * rng.random(100)
    values = [accumulated_overspend(t, v, th) for th in (100.0, 105.0, 110.0, 120.0)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[0] > 0


def test_validation_errors():
    good_t = np.array([0.0, 1.0])
    good_v = np.array([1.0, 2.0])
    with pytest.raises(MetricError):
        peak_power(np.array([]), np.array([]))
    with pytest.raises(MetricError):
        peak_power(good_t, np.array([1.0]))
    with pytest.raises(MetricError):
        peak_power(np.array([1.0, 0.0]), good_v)  # decreasing time
    with pytest.raises(MetricError):
        peak_power(good_t, np.array([-1.0, 1.0]))  # negative power
    with pytest.raises(MetricError):
        energy_joules(np.array([0.0]), np.array([1.0]))  # single sample
    with pytest.raises(MetricError):
        overspend_energy_joules(good_t, good_v, -1.0)
