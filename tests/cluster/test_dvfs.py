"""Unit tests for DVFS tables."""

import numpy as np
import pytest

from repro.cluster import DvfsTable
from repro.errors import ConfigurationError
from repro.units import ghz


def test_xeon_table_has_ten_levels():
    t = DvfsTable.xeon_x5670()
    assert t.num_levels == 10
    assert t.top_level == 9


def test_xeon_frequency_range():
    t = DvfsTable.xeon_x5670()
    assert t.frequency(0) == pytest.approx(ghz(1.60))
    assert t.frequency(9) == pytest.approx(ghz(2.93))


def test_frequencies_strictly_increasing():
    t = DvfsTable.xeon_x5670()
    freqs = [t.frequency(lv) for lv in range(t.num_levels)]
    assert all(b > a for a, b in zip(freqs, freqs[1:]))


def test_speed_normalised_at_top():
    t = DvfsTable.xeon_x5670()
    assert t.speed(t.top_level) == pytest.approx(1.0)
    assert t.speed(0) == pytest.approx(1.60 / 2.93, rel=1e-6)


def test_dynamic_scale_normalised_and_monotone():
    t = DvfsTable.xeon_x5670()
    scales = np.asarray(t.dynamic_scale(np.arange(10)))
    assert scales[-1] == pytest.approx(1.0)
    assert np.all(np.diff(scales) > 0)
    # f·V² at the bottom: (1.6·0.85²)/(2.93·1.25²)
    assert scales[0] == pytest.approx((1.6 * 0.85**2) / (2.93 * 1.25**2), rel=1e-6)


def test_vectorised_speed_matches_scalar():
    t = DvfsTable.xeon_x5670()
    levels = np.array([0, 3, 9])
    vec = np.asarray(t.speed(levels))
    for i, lv in enumerate(levels):
        assert vec[i] == pytest.approx(t.speed(int(lv)))


def test_clamp():
    t = DvfsTable.xeon_x5670()
    assert t.clamp(-3) == 0
    assert t.clamp(100) == 9
    assert t.clamp(4) == 4


def test_level_bounds_checked():
    t = DvfsTable.xeon_x5670()
    with pytest.raises(ConfigurationError):
        t.frequency(10)
    with pytest.raises(ConfigurationError):
        t.voltage(-1)


def test_linear_builder():
    t = DvfsTable.linear(5, 1e9, 2e9)
    assert t.num_levels == 5
    assert t.frequency(0) == pytest.approx(1e9)
    assert t.frequency(4) == pytest.approx(2e9)


def test_linear_single_level():
    t = DvfsTable.linear(1, 1e9, 2e9)
    assert t.num_levels == 1
    assert t.speed(0) == pytest.approx(1.0)


def test_linear_invalid():
    with pytest.raises(ConfigurationError):
        DvfsTable.linear(0, 1e9, 2e9)
    with pytest.raises(ConfigurationError):
        DvfsTable.linear(3, 2e9, 1e9)


def test_validation_rejects_bad_tables():
    with pytest.raises(ConfigurationError):
        DvfsTable(frequencies_hz=(), voltages_v=())
    with pytest.raises(ConfigurationError):
        DvfsTable(frequencies_hz=(1e9, 2e9), voltages_v=(1.0,))
    with pytest.raises(ConfigurationError):
        DvfsTable(frequencies_hz=(2e9, 1e9), voltages_v=(1.0, 1.1))
    with pytest.raises(ConfigurationError):
        DvfsTable(frequencies_hz=(1e9, 2e9), voltages_v=(1.1, 1.0))
    with pytest.raises(ConfigurationError):
        DvfsTable(frequencies_hz=(-1e9, 2e9), voltages_v=(1.0, 1.1))
