"""Unit tests for the agent pool and the central collector."""

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.telemetry import AgentPool, TelemetryCollector


# ----------------------------------------------------------------------
# AgentPool
# ----------------------------------------------------------------------
def test_pool_samples_all_agents(busy_cluster):
    pool = AgentPool(busy_cluster.state, np.arange(16))
    level, cpu, mem, nic, job = pool.sample_arrays(0.0)
    assert level.shape == (16,)
    assert job[4] == 1 and job[15] == -1
    assert pool.samples_taken == 1


def test_pool_arrays_are_snapshots(busy_cluster):
    pool = AgentPool(busy_cluster.state, np.arange(16))
    level, *_ = pool.sample_arrays(0.0)
    busy_cluster.state.set_level(0, 0)
    assert level[0] == busy_cluster.spec.top_level  # unaffected


def test_pool_validation(busy_cluster):
    with pytest.raises(TelemetryError):
        AgentPool(busy_cluster.state, np.array([99]))
    with pytest.raises(TelemetryError):
        AgentPool(busy_cluster.state, np.array([1, 1]))


def test_pool_subset(busy_cluster):
    pool = AgentPool(busy_cluster.state, np.array([4, 5, 6]))
    assert pool.size == 3
    _, cpu, *_ = pool.sample_arrays(0.0)
    np.testing.assert_allclose(cpu, 0.9)


# ----------------------------------------------------------------------
# TelemetryCollector
# ----------------------------------------------------------------------
def test_collector_snapshot_contents(busy_cluster):
    collector = TelemetryCollector(busy_cluster.state, np.arange(16))
    snap = collector.collect(5.0)
    assert snap.time == 5.0
    assert snap.size == 16
    assert snap.busy_mask().sum() == 14
    assert snap.index_of(10) == 10


def test_collector_keeps_previous(busy_cluster):
    collector = TelemetryCollector(busy_cluster.state, np.arange(16))
    first = collector.collect(1.0)
    assert collector.previous is None
    busy_cluster.state.set_load(np.arange(0, 4), 0.99, 0.2, 0.1)
    second = collector.collect(2.0)
    assert collector.previous is first
    assert collector.current is second
    assert first.cpu_util[0] == pytest.approx(0.3)
    assert second.cpu_util[0] == pytest.approx(0.99)


def test_snapshot_immutable(busy_cluster):
    collector = TelemetryCollector(busy_cluster.state, np.arange(16))
    snap = collector.collect(0.0)
    with pytest.raises(ValueError):
        snap.level[0] = 3


def test_snapshot_index_of_missing(busy_cluster):
    collector = TelemetryCollector(busy_cluster.state, np.array([0, 1]))
    snap = collector.collect(0.0)
    with pytest.raises(TelemetryError):
        snap.index_of(9)


def test_empty_candidate_set(busy_cluster):
    collector = TelemetryCollector(busy_cluster.state, np.empty(0, dtype=np.int64))
    snap = collector.collect(0.0)
    assert snap.size == 0
    assert snap.busy_mask().sum() == 0
