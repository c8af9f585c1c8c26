"""Property-based tests for the power model and power metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster import NodeSpec
from repro.metrics.power import (
    accumulated_overspend,
    energy_joules,
    overspend_energy_joules,
)
from repro.power import PowerModel

SPEC = NodeSpec.tianhe_1a()
MODEL = PowerModel(SPEC)

fraction = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
level = st.integers(min_value=0, max_value=SPEC.top_level)


@given(level, fraction, fraction, fraction)
def test_power_bounded_by_idle_and_max(lv, u, m, d):
    p = MODEL.evaluate(lv, u, m, d)
    assert SPEC.idle_power_per_level[lv] <= p + 1e-9
    assert p <= SPEC.max_power(lv) + 1e-9


@given(level, fraction, fraction, fraction)
def test_power_monotone_in_level(lv, u, m, d):
    if lv < SPEC.top_level:
        assert MODEL.evaluate(lv, u, m, d) < MODEL.evaluate(lv + 1, u, m, d) + 1e-9


@given(level, fraction, fraction, fraction, fraction)
def test_power_monotone_in_load(lv, u, m, d, delta):
    u2 = min(1.0, u + delta)
    assert MODEL.evaluate(lv, u, m, d) <= MODEL.evaluate(lv, u2, m, d) + 1e-9


@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30)
def test_system_power_additive(num_nodes, seed):
    from repro.cluster import ClusterState

    rng = np.random.default_rng(seed)
    state = ClusterState(SPEC, num_nodes)
    state.level[:] = rng.integers(0, SPEC.num_levels, num_nodes)
    state.cpu_util[:] = rng.random(num_nodes)
    state.mem_frac[:] = rng.random(num_nodes)
    state.nic_frac[:] = rng.random(num_nodes)
    total = MODEL.system_power(state)
    assert total == pytest.approx(MODEL.node_power(state).sum())
    assert total >= num_nodes * SPEC.idle_power_per_level.min() - 1e-6
    assert total <= num_nodes * SPEC.max_power() + 1e-6


power_series = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=60),
    elements=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
)


@given(power_series, st.floats(min_value=0.0, max_value=1.2e5, allow_nan=False))
@settings(max_examples=100)
def test_overspend_bounds(values, threshold):
    times = np.arange(len(values), dtype=np.float64)
    excess = overspend_energy_joules(times, values, threshold)
    total = energy_joules(times, values)
    assert excess >= 0.0
    assert excess <= total + 1e-6
    if total > 0:
        ratio = accumulated_overspend(times, values, threshold)
        assert 0.0 <= ratio <= 1.0 + 1e-12


@given(power_series)
@settings(max_examples=100)
def test_overspend_zero_threshold_equals_total_energy(values):
    times = np.arange(len(values), dtype=np.float64)
    assert overspend_energy_joules(times, values, 0.0) == pytest.approx(
        energy_joules(times, values), abs=1e-6
    )


@given(
    power_series,
    st.floats(min_value=0.0, max_value=5e4, allow_nan=False),
    st.floats(min_value=0.0, max_value=5e4, allow_nan=False),
)
@settings(max_examples=100)
def test_overspend_monotone_in_threshold(values, th_a, th_b):
    times = np.arange(len(values), dtype=np.float64)
    lo, hi = sorted((th_a, th_b))
    assert overspend_energy_joules(times, values, lo) >= overspend_energy_joules(
        times, values, hi
    ) - 1e-9


@given(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.2e4, allow_nan=False),
)
def test_overspend_single_segment_exact(v0, v1, threshold):
    """Brute-force integration of one linear segment agrees with the
    closed form (dense midpoint rule)."""
    times = np.array([0.0, 1.0])
    values = np.array([v0, v1])
    analytic = overspend_energy_joules(times, values, threshold)
    xs = np.linspace(0.0, 1.0, 20001)
    interp = v0 + (v1 - v0) * xs
    numeric = np.trapezoid(np.maximum(interp - threshold, 0.0), xs)
    assert analytic == pytest.approx(numeric, abs=max(1.0, v0 + v1) * 1e-3)
