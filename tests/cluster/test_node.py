"""Unit tests for NodeSpec and the cluster-level node queries."""

import numpy as np
import pytest

from repro.cluster import Cluster, NodeSpec
from repro.cluster.cpu import ProcessorSpec
from repro.cluster.memory import MemorySpec
from repro.cluster.nic import NicSpec
from repro.errors import ConfigurationError


def test_tianhe_node_shape(node_spec):
    assert node_spec.sockets == 2
    assert node_spec.cores == 12
    assert node_spec.num_levels == 10
    assert node_spec.top_level == 9


def test_idle_power_composition(node_spec):
    expected_top = (
        node_spec.board_power_w
        + 2 * node_spec.processor.idle_power_per_level()[-1]
        + node_spec.memory.total_idle_power_w
        + node_spec.nic.idle_power_w
    )
    assert node_spec.idle_power_per_level[-1] == pytest.approx(expected_top)


def test_max_power_is_sum_of_components(node_spec):
    lv = node_spec.top_level
    expected = (
        node_spec.idle_power_per_level[lv]
        + node_spec.cpu_dynamic_per_level[lv]
        + node_spec.mem_dynamic_per_level[lv]
        + node_spec.nic_dynamic_per_level[lv]
    )
    assert node_spec.max_power() == pytest.approx(expected)


def test_max_power_monotone_in_level(node_spec):
    powers = [node_spec.max_power(lv) for lv in range(node_spec.num_levels)]
    assert all(b > a for a, b in zip(powers, powers[1:]))


def test_min_power_is_idle_at_bottom(node_spec):
    assert node_spec.min_power() == pytest.approx(node_spec.idle_power_per_level[0])


def test_realistic_magnitudes(node_spec):
    """Blade-level sanity: idle in 120-220 W, peak in 280-450 W."""
    assert 120 <= node_spec.min_power() <= 220
    assert 280 <= node_spec.max_power() <= 450


def test_coefficient_arrays_read_only(node_spec):
    with pytest.raises(ValueError):
        node_spec.idle_power_per_level[0] = 0.0


def test_node_spec_validation():
    cpu = ProcessorSpec.xeon_x5670()
    mem = MemorySpec.tianhe_ddr3()
    nic = NicSpec.tianhe_interconnect()
    with pytest.raises(ConfigurationError):
        NodeSpec(cpu, 0, mem, nic, 70.0)
    with pytest.raises(ConfigurationError):
        NodeSpec(cpu, 2, mem, nic, -1.0)


def test_cluster_capacity_queries(small_cluster):
    assert small_cluster.num_nodes == 16
    assert small_cluster.cores_per_node == 12
    assert small_cluster.total_cores == 192
    assert small_cluster.nodes_for_processes(1) == 1
    assert small_cluster.nodes_for_processes(12) == 1
    assert small_cluster.nodes_for_processes(13) == 2
    assert small_cluster.nodes_for_processes(256) == 22


def test_nodes_for_processes_invalid(small_cluster):
    with pytest.raises(ConfigurationError):
        small_cluster.nodes_for_processes(0)


def test_theoretical_max_power(small_cluster):
    expected = 16 * small_cluster.spec.max_power()
    assert small_cluster.theoretical_max_power() == pytest.approx(expected)


def test_set_privileged_nodes(small_cluster):
    small_cluster.set_privileged_nodes([0, 1])
    assert not small_cluster.state.controllable[0]
    assert not small_cluster.state.controllable[1]
    assert small_cluster.state.controllable[2]
    # Re-declaring replaces the old set.
    small_cluster.set_privileged_nodes([5])
    assert small_cluster.state.controllable[0]
    assert not small_cluster.state.controllable[5]


@pytest.mark.parametrize("bad", [[-1], [99], [0, 16]])
def test_set_privileged_nodes_rejects_out_of_range_ids(small_cluster, bad):
    small_cluster.set_privileged_nodes([0, 1])
    with pytest.raises(ConfigurationError):
        small_cluster.set_privileged_nodes(bad)
    # A rejected call keeps the previous set.
    privileged = np.flatnonzero(~small_cluster.state.controllable)
    assert privileged.tolist() == [0, 1]


def test_tianhe_default_size():
    assert Cluster.tianhe_1a().num_nodes == 128
