"""Unit tests for the management-cost model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.telemetry import ManagementCostModel


# ----------------------------------------------------------------------
# ManagementCostModel
# ----------------------------------------------------------------------
def test_cost_zero_nodes_is_fixed_only():
    model = ManagementCostModel(fixed_ms=5.0, per_node_ms=1.0, pairwise_us=10.0)
    assert model.cycle_cost_s(0) == pytest.approx(0.005)


def test_cost_composition():
    model = ManagementCostModel(fixed_ms=5.0, per_node_ms=1.0, pairwise_us=10.0)
    # 5 ms + 100 ms + 10us·100² = 5ms + 100ms + 100ms
    assert model.cycle_cost_s(100) == pytest.approx(0.005 + 0.1 + 0.1)


def test_cost_superlinear():
    """Figure 5's observation: per-node cost grows with the set size."""
    model = ManagementCostModel()
    per_node_small = model.cycle_cost_s(8) / 8
    per_node_large = model.cycle_cost_s(128) / 128
    assert per_node_large > per_node_small


def test_cpu_utilization_clamped():
    model = ManagementCostModel(cycle_period_s=0.01)
    assert model.cpu_utilization(1000) == 1.0


def test_cpu_utilization_vectorised():
    model = ManagementCostModel()
    sizes = np.array([0, 8, 128])
    out = np.asarray(model.cpu_utilization(sizes))
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)


def test_cost_validation():
    with pytest.raises(ConfigurationError):
        ManagementCostModel(fixed_ms=-1.0)
    with pytest.raises(ConfigurationError):
        ManagementCostModel(cycle_period_s=0.0)
    with pytest.raises(ConfigurationError):
        ManagementCostModel().cycle_cost_s(-1)


def test_cost_rejects_negative_node_counts():
    model = ManagementCostModel()
    with pytest.raises(ConfigurationError):
        model.cycle_cost_s(-1)
    with pytest.raises(ConfigurationError):
        model.cycle_cost_s(np.array([0, 4, -2]))


def test_cycle_cost_array_path_matches_scalars():
    model = ManagementCostModel(fixed_ms=2.0, per_node_ms=0.5, pairwise_us=7.0)
    sizes = np.array([0, 1, 16, 128])
    vec = model.cycle_cost_s(sizes)
    assert isinstance(vec, np.ndarray)
    for i, n in enumerate(sizes):
        assert vec[i] == pytest.approx(model.cycle_cost_s(int(n)))
