"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.cluster import Cluster, NodeSpec
from repro.power import NodePowerEstimator, PowerModel
from repro.sim import RandomSource

# Property-based tests must behave identically on every CI run: the
# "deterministic" profile derandomises example generation (same examples
# every run, no flaky shrink timeouts).  Local runs keep Hypothesis'
# default randomised exploration unless HYPOTHESIS_PROFILE says
# otherwise; CI exports HYPOTHESIS_PROFILE=deterministic.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.register_profile("default", settings.default)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng_source() -> RandomSource:
    """A seeded random source."""
    return RandomSource(seed=123)


@pytest.fixture
def node_spec() -> NodeSpec:
    """The Tianhe-1A node specification."""
    return NodeSpec.tianhe_1a()


@pytest.fixture
def small_cluster() -> Cluster:
    """A 16-node Tianhe-1A cluster (fast for unit tests)."""
    return Cluster.tianhe_1a(num_nodes=16)


@pytest.fixture
def cluster128() -> Cluster:
    """The paper-sized 128-node cluster."""
    return Cluster.tianhe_1a(num_nodes=128)


@pytest.fixture
def power_model(node_spec: NodeSpec) -> PowerModel:
    """Formula (1) model for the Tianhe-1A node."""
    return PowerModel(node_spec)


@pytest.fixture
def estimator(power_model: PowerModel) -> NodePowerEstimator:
    """Estimator over the Tianhe-1A model."""
    return NodePowerEstimator(power_model)


@pytest.fixture
def busy_cluster(small_cluster: Cluster) -> Cluster:
    """16 nodes: jobs 0..2 on nodes [0..3], [4..9], [10..13]; 14-15 idle.

    Loads are distinct per job so per-job power rankings are stable:
    job 1 (6 nodes, high util) > job 2 (4 nodes, mid util) >
    job 0 (4 nodes, low util).
    """
    state = small_cluster.state
    state.assign_job(np.arange(0, 4), 0)
    state.set_load(np.arange(0, 4), cpu_util=0.3, mem_frac=0.2, nic_frac=0.1)
    state.assign_job(np.arange(4, 10), 1)
    state.set_load(np.arange(4, 10), cpu_util=0.9, mem_frac=0.5, nic_frac=0.3)
    state.assign_job(np.arange(10, 14), 2)
    state.set_load(np.arange(10, 14), cpu_util=0.6, mem_frac=0.4, nic_frac=0.2)
    return small_cluster
