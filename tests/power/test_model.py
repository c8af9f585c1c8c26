"""Unit tests for the Formula (1) power model."""

import numpy as np
import pytest

from repro.cluster import ClusterState
from repro.errors import ConfigurationError


def test_idle_node_draws_idle_power(power_model, node_spec):
    p = power_model.evaluate(node_spec.top_level, 0.0, 0.0, 0.0)
    assert p == pytest.approx(node_spec.idle_power_per_level[-1])


def test_formula_components_add_linearly(power_model, node_spec):
    lv = 5
    base = power_model.evaluate(lv, 0.0, 0.0, 0.0)
    cpu_only = power_model.evaluate(lv, 0.5, 0.0, 0.0)
    mem_only = power_model.evaluate(lv, 0.0, 0.5, 0.0)
    nic_only = power_model.evaluate(lv, 0.0, 0.0, 0.5)
    combined = power_model.evaluate(lv, 0.5, 0.5, 0.5)
    assert combined == pytest.approx(cpu_only + mem_only + nic_only - 2 * base)
    assert cpu_only - base == pytest.approx(0.5 * node_spec.cpu_dynamic_per_level[lv])
    assert mem_only - base == pytest.approx(0.5 * node_spec.mem_dynamic_per_level[lv])
    assert nic_only - base == pytest.approx(0.5 * node_spec.nic_dynamic_per_level[lv])


def test_full_load_top_level_equals_max_power(power_model, node_spec):
    p = power_model.evaluate(node_spec.top_level, 1.0, 1.0, 1.0)
    assert p == pytest.approx(node_spec.max_power())


def test_power_monotone_in_level(power_model):
    powers = [power_model.evaluate(lv, 0.8, 0.5, 0.2) for lv in range(10)]
    assert all(b > a for a, b in zip(powers, powers[1:]))


def test_power_monotone_in_utilisation(power_model):
    powers = [power_model.evaluate(9, u, 0.5, 0.2) for u in np.linspace(0, 1, 11)]
    assert all(b > a for a, b in zip(powers, powers[1:]))


def test_evaluate_vectorised_matches_scalar(power_model):
    levels = np.array([0, 4, 9])
    utils = np.array([0.1, 0.5, 0.9])
    vec = power_model.evaluate(levels, utils, 0.3, 0.1)
    for i in range(3):
        assert vec[i] == pytest.approx(
            power_model.evaluate(int(levels[i]), float(utils[i]), 0.3, 0.1)
        )


def test_evaluate_rejects_bad_level(power_model):
    with pytest.raises(ConfigurationError):
        power_model.evaluate(42, 0.5, 0.5, 0.5)


def test_node_power_over_state(power_model, node_spec):
    state = ClusterState(node_spec, 4)
    state.set_load(np.arange(4), 0.5, 0.3, 0.1)
    per_node = power_model.node_power(state)
    assert per_node.shape == (4,)
    expected = power_model.evaluate(node_spec.top_level, 0.5, 0.3, 0.1)
    np.testing.assert_allclose(per_node, expected)


def test_system_power_is_sum(power_model, node_spec):
    state = ClusterState(node_spec, 4)
    assert power_model.system_power(state) == pytest.approx(
        power_model.node_power(state).sum()
    )


def _one_level_savings(estimator, state):
    """Formula (1) watts each node would save one level down."""
    return estimator.estimate_savings(
        state.level, state.cpu_util, state.mem_frac, state.nic_frac
    )


def test_degrade_savings_positive_above_bottom(estimator, node_spec):
    state = ClusterState(node_spec, 4)
    state.set_load(np.arange(4), 0.9, 0.5, 0.3)
    assert np.all(_one_level_savings(estimator, state) > 0)


def test_savings_grow_with_utilisation(estimator, node_spec):
    """Degrading a busy node saves more than degrading an idle one —
    the property the savings-ranked policies exploit."""
    state = ClusterState(node_spec, 2)
    state.set_load(np.array([0]), 1.0, 0.5, 0.3)
    state.set_load(np.array([1]), 0.1, 0.5, 0.3)
    savings = _one_level_savings(estimator, state)
    assert savings[0] > savings[1]
