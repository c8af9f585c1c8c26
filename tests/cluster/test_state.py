"""Unit tests for the structure-of-arrays cluster state."""

import numpy as np
import pytest

from repro.cluster import ClusterState
from repro.cluster.state import IDLE_MEM_FRACTION
from repro.errors import ConfigurationError


def test_initial_state(node_spec):
    s = ClusterState(node_spec, 8)
    assert s.num_nodes == 8
    assert np.all(s.level == node_spec.top_level)
    assert np.all(s.cpu_util == 0.0)
    assert np.all(s.mem_frac == IDLE_MEM_FRACTION)
    assert np.all(s.job_id == -1)
    assert np.all(s.controllable)


def test_initial_level_override(node_spec):
    s = ClusterState(node_spec, 4, initial_level=0)
    assert np.all(s.level == 0)


def test_invalid_construction(node_spec):
    with pytest.raises(ConfigurationError):
        ClusterState(node_spec, 0)
    with pytest.raises(ConfigurationError):
        ClusterState(node_spec, 4, initial_level=99)


def test_set_level_validates(node_spec):
    s = ClusterState(node_spec, 4)
    s.set_level(2, 5)
    assert s.level[2] == 5
    with pytest.raises(ConfigurationError):
        s.set_level(9, 5)
    with pytest.raises(ConfigurationError):
        s.set_level(0, 10)


def test_set_levels_vectorised(node_spec):
    s = ClusterState(node_spec, 8)
    s.set_levels(np.array([1, 3, 5]), np.array([0, 2, 4]))
    assert s.level[1] == 0 and s.level[3] == 2 and s.level[5] == 4


def test_set_levels_broadcast_scalar(node_spec):
    s = ClusterState(node_spec, 8)
    s.set_levels(np.array([0, 1]), 3)
    assert s.level[0] == 3 and s.level[1] == 3


def test_set_levels_validates(node_spec):
    s = ClusterState(node_spec, 4)
    with pytest.raises(ConfigurationError):
        s.set_levels(np.array([99]), 0)
    with pytest.raises(ConfigurationError):
        s.set_levels(np.array([0]), 42)


def test_degrade_floors_at_zero(node_spec):
    s = ClusterState(node_spec, 4)
    ids = np.array([0, 1])
    s.set_levels(ids, np.array([1, 5]))
    s.degrade(ids, steps=3)
    assert s.level[0] == 0
    assert s.level[1] == 2


def test_upgrade_caps_at_top(node_spec):
    s = ClusterState(node_spec, 4)
    ids = np.array([0, 1])
    s.set_levels(ids, np.array([8, 3]))
    s.upgrade(ids, steps=4)
    assert s.level[0] == node_spec.top_level
    assert s.level[1] == 7


def test_assign_and_release_job(node_spec):
    s = ClusterState(node_spec, 8)
    ids = np.array([2, 3, 4])
    s.assign_job(ids, 11)
    assert np.all(s.job_id[ids] == 11)
    s.set_load(ids, 0.9, 0.5, 0.2)
    s.release_job(ids)
    assert np.all(s.job_id[ids] == -1)
    assert np.all(s.cpu_util[ids] == 0.0)
    assert np.all(s.mem_frac[ids] == IDLE_MEM_FRACTION)
    assert np.all(s.nic_frac[ids] == 0.0)


def test_double_assignment_rejected(node_spec):
    s = ClusterState(node_spec, 8)
    s.assign_job(np.array([2]), 1)
    with pytest.raises(ConfigurationError):
        s.assign_job(np.array([2]), 2)


def test_set_load_clips(node_spec):
    s = ClusterState(node_spec, 4)
    s.set_load(np.array([0]), 1.7, -0.2, 0.5)
    assert s.cpu_util[0] == 1.0
    assert s.mem_frac[0] == 0.0
    assert s.nic_frac[0] == 0.5


def test_masks_and_queries(node_spec):
    s = ClusterState(node_spec, 6)
    s.assign_job(np.array([0, 1]), 5)
    s.assign_job(np.array([4]), 9)
    assert list(s.idle_nodes()) == [2, 3, 5]
    assert list(s.nodes_of_job(5)) == [0, 1]
    assert list(s.nodes_of_job(404)) == []
    assert list(s.running_job_ids()) == [5, 9]
    assert s.busy_mask().sum() == 3


def test_privileged_marking(node_spec):
    s = ClusterState(node_spec, 4)
    s.set_privileged(np.array([1, 2]))
    assert not s.controllable[1]
    s.set_privileged(np.array([1]), privileged=False)
    assert s.controllable[1]


def test_set_privileged_rejects_out_of_range_ids(node_spec):
    s = ClusterState(node_spec, 4)
    for bad in ([-1], [4]):
        with pytest.raises(ConfigurationError):
            s.set_privileged(np.array(bad))
    assert s.controllable.all()


def test_copy_is_deep(node_spec):
    s = ClusterState(node_spec, 4)
    clone = s.copy()
    s.set_level(0, 0)
    s.assign_job(np.array([1]), 3)
    assert clone.level[0] == node_spec.top_level
    assert clone.job_id[1] == -1
