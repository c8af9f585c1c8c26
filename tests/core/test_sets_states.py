"""Unit tests for node-set classification and power-state classification."""

import numpy as np
import pytest

from repro.core import NodeSets, PowerState, classify_power_state
from repro.errors import ConfigurationError, PowerManagementError


# ----------------------------------------------------------------------
# NodeSets
# ----------------------------------------------------------------------
def test_default_candidates_are_all_controllable(small_cluster):
    sets = NodeSets(small_cluster)
    assert sets.size == 16
    np.testing.assert_array_equal(sets.candidates, np.arange(16))
    assert len(sets.uncontrollable) == 0


def test_privileged_nodes_excluded(small_cluster):
    small_cluster.set_privileged_nodes([0, 5])
    sets = NodeSets(small_cluster)
    assert sets.size == 14
    assert 0 not in sets.candidates
    assert list(sets.uncontrollable) == [0, 5]
    assert not sets.is_candidate(0)
    assert sets.is_candidate(1)


def test_total_set(small_cluster):
    sets = NodeSets(small_cluster)
    np.testing.assert_array_equal(sets.total, np.arange(16))


def test_explicit_candidate_ids(small_cluster):
    sets = NodeSets(small_cluster, np.array([3, 1, 3, 7]))
    np.testing.assert_array_equal(sets.candidates, [1, 3, 7])  # unique, sorted
    mask = sets.candidate_mask
    assert mask[1] and mask[3] and mask[7] and not mask[0]


def test_candidates_must_be_controllable(small_cluster):
    small_cluster.set_privileged_nodes([2])
    with pytest.raises(ConfigurationError):
        NodeSets(small_cluster, np.array([1, 2]))


def test_candidate_ids_bounds_checked(small_cluster):
    with pytest.raises(ConfigurationError):
        NodeSets(small_cluster, np.array([99]))


def test_select_first_k(small_cluster):
    sets = NodeSets.select(small_cluster, 4)
    np.testing.assert_array_equal(sets.candidates, [0, 1, 2, 3])


def test_select_first_k_skips_privileged(small_cluster):
    small_cluster.set_privileged_nodes([0])
    sets = NodeSets.select(small_cluster, 4)
    np.testing.assert_array_equal(sets.candidates, [1, 2, 3, 4])


def test_select_zero_gives_empty(small_cluster):
    sets = NodeSets.select(small_cluster, 0)
    assert sets.size == 0


def test_select_too_many_rejected(small_cluster):
    with pytest.raises(ConfigurationError):
        NodeSets.select(small_cluster, 17)


# ----------------------------------------------------------------------
# Power states
# ----------------------------------------------------------------------
def test_green_below_low():
    assert classify_power_state(999.0, 1000.0, 2000.0) is PowerState.GREEN


def test_yellow_between():
    assert classify_power_state(1000.0, 1000.0, 2000.0) is PowerState.YELLOW
    assert classify_power_state(1999.0, 1000.0, 2000.0) is PowerState.YELLOW


def test_red_at_and_above_high():
    assert classify_power_state(2000.0, 1000.0, 2000.0) is PowerState.RED
    assert classify_power_state(9999.0, 1000.0, 2000.0) is PowerState.RED


def test_invalid_thresholds_rejected():
    with pytest.raises(PowerManagementError):
        classify_power_state(1.0, 0.0, 1.0)
    with pytest.raises(PowerManagementError):
        classify_power_state(1.0, 2.0, 1.0)


def test_severity_ordering():
    assert PowerState.GREEN.severity < PowerState.YELLOW.severity < PowerState.RED.severity
