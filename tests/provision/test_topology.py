"""Unit tests for the rated power-delivery topology."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.provision import PowerTopology


def _topology(**overrides):
    kwargs = dict(
        feed_capacities_w=(600.0, 400.0),
        branch_rated_w=300.0,
        nodes_per_rack=4,
        num_nodes=10,
    )
    kwargs.update(overrides)
    return PowerTopology(**kwargs)


# ----------------------------------------------------------------------
# Shape
# ----------------------------------------------------------------------
def test_rack_count_rounds_up():
    assert _topology(num_nodes=10, nodes_per_rack=4).num_racks == 3
    assert _topology(num_nodes=8, nodes_per_rack=4).num_racks == 2


def test_rack_nodes_are_contiguous_blocks_last_rack_short():
    topo = _topology(num_nodes=10, nodes_per_rack=4)
    np.testing.assert_array_equal(topo.rack_nodes(0), [0, 1, 2, 3])
    np.testing.assert_array_equal(topo.rack_nodes(1), [4, 5, 6, 7])
    np.testing.assert_array_equal(topo.rack_nodes(2), [8, 9])


def test_rack_index_matches_rack_nodes():
    topo = _topology()
    idx = topo.rack_index()
    for rack in range(topo.num_racks):
        np.testing.assert_array_equal(
            np.flatnonzero(idx == rack), topo.rack_nodes(rack)
        )


def test_rack_nodes_out_of_range():
    with pytest.raises(ConfigurationError):
        _topology().rack_nodes(3)


# ----------------------------------------------------------------------
# Capacities
# ----------------------------------------------------------------------
def test_design_capacity_is_feed_sum():
    assert _topology().design_capacity_w == 1000.0


def test_surviving_capacity_follows_live_mask():
    topo = _topology()
    assert topo.surviving_capacity_w(np.array([True, True])) == 1000.0
    assert topo.surviving_capacity_w(np.array([False, True])) == 400.0
    assert topo.surviving_capacity_w(np.array([False, False])) == 0.0


def test_surviving_capacity_rejects_bad_mask():
    with pytest.raises(ConfigurationError):
        _topology().surviving_capacity_w(np.array([True]))


def test_branch_ratings_uniform():
    np.testing.assert_array_equal(
        _topology().branch_ratings_w(), [300.0, 300.0, 300.0]
    )


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "overrides",
    [
        {"feed_capacities_w": ()},
        {"feed_capacities_w": (600.0, -1.0)},
        {"branch_rated_w": 0.0},
        {"nodes_per_rack": 0},
        {"num_nodes": 0},
    ],
)
def test_invalid_topology_rejected(overrides):
    with pytest.raises(ConfigurationError):
        _topology(**overrides)


# ----------------------------------------------------------------------
# Sizing against a cluster
# ----------------------------------------------------------------------
def test_for_cluster_sizes_feeds_from_headroom(small_cluster):
    topo = PowerTopology.for_cluster(small_cluster, nodes_per_rack=4)
    p_thy = small_cluster.state.theoretical_max_power()
    assert topo.num_feeds == 2
    assert topo.design_capacity_w == pytest.approx(1.2 * p_thy)
    # Losing one of two feeds leaves 60% of P_thy.
    assert topo.surviving_capacity_w(
        np.array([False, True])
    ) == pytest.approx(0.6 * p_thy)


def test_for_cluster_negative_rack_headroom_underprovisions(small_cluster):
    healthy = PowerTopology.for_cluster(small_cluster, rack_headroom=0.25)
    stressed = PowerTopology.for_cluster(small_cluster, rack_headroom=-0.15)
    assert stressed.branch_rated_w < healthy.branch_rated_w


def test_check_assumptions_passes_on_sane_headroom(small_cluster):
    topo = PowerTopology.for_cluster(small_cluster, nodes_per_rack=4)
    topo.check_assumptions(small_cluster)  # must not raise


def test_check_assumptions_rejects_uncontrollable_branch(small_cluster):
    # A branch rated below the rack's fully-throttled floor can never be
    # protected by capping: the topology must refuse it up front.
    topo = PowerTopology.for_cluster(
        small_cluster, nodes_per_rack=4, rack_headroom=-0.99
    )
    with pytest.raises(ConfigurationError, match="branch controllability"):
        topo.check_assumptions(small_cluster)


def test_branch_floor_matches_cluster_size_only(small_cluster):
    topo = _topology(num_nodes=10)
    with pytest.raises(ConfigurationError):
        topo.branch_floor_w(small_cluster)
