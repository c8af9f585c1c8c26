"""Unit tests for the management-cost model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.telemetry import cost


def _coefficients(monkeypatch, fixed_ms, per_node_ms, pairwise_us):
    monkeypatch.setattr(cost, "FIXED_MS", fixed_ms)
    monkeypatch.setattr(cost, "PER_NODE_MS", per_node_ms)
    monkeypatch.setattr(cost, "PAIRWISE_US", pairwise_us)


# ----------------------------------------------------------------------
# The Figure 5 cost model
# ----------------------------------------------------------------------
def test_cost_zero_nodes_is_fixed_only(monkeypatch):
    _coefficients(monkeypatch, fixed_ms=5.0, per_node_ms=1.0, pairwise_us=10.0)
    assert cost.cycle_cost_s(0) == pytest.approx(0.005)


def test_cost_composition(monkeypatch):
    _coefficients(monkeypatch, fixed_ms=5.0, per_node_ms=1.0, pairwise_us=10.0)
    # 5 ms + 100 ms + 10us·100² = 5ms + 100ms + 100ms
    assert cost.cycle_cost_s(100) == pytest.approx(0.005 + 0.1 + 0.1)


def test_cost_superlinear():
    """Figure 5's observation: per-node cost grows with the set size."""
    per_node_small = cost.cycle_cost_s(8) / 8
    per_node_large = cost.cycle_cost_s(128) / 128
    assert per_node_large > per_node_small


def test_cpu_utilization_clamped(monkeypatch):
    monkeypatch.setattr(cost, "CYCLE_PERIOD_S", 0.01)
    assert cost.cpu_utilization(1000) == 1.0


def test_cpu_utilization_vectorised():
    sizes = np.array([0, 8, 128])
    out = np.asarray(cost.cpu_utilization(sizes))
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)


def test_cost_validation():
    with pytest.raises(ConfigurationError):
        cost.cycle_cost_s(-1)


def test_cost_rejects_negative_node_counts():
    with pytest.raises(ConfigurationError):
        cost.cycle_cost_s(-1)
    with pytest.raises(ConfigurationError):
        cost.cycle_cost_s(np.array([0, 4, -2]))


def test_cycle_cost_array_path_matches_scalars(monkeypatch):
    _coefficients(monkeypatch, fixed_ms=2.0, per_node_ms=0.5, pairwise_us=7.0)
    sizes = np.array([0, 1, 16, 128])
    vec = cost.cycle_cost_s(sizes)
    assert isinstance(vec, np.ndarray)
    for i, n in enumerate(sizes):
        assert vec[i] == pytest.approx(cost.cycle_cost_s(int(n)))
