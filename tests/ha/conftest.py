"""Shared world-building helpers for the HA test suite.

Every test here needs the same shape: a seeded 16-node world whose load
random-walks hot enough to exercise yellow/red decisions, a manager
wired to a journal and (optionally) a shared actuator, and a way to
advance both in lockstep with a reference world.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import NodeSets, PowerManager, ThresholdController
from repro.core.actuator import DvfsActuator
from repro.core.policies import make_policy
from repro.power import PowerModel, SystemPowerMeter


def make_world() -> Cluster:
    """A fresh 16-node busy cluster (same layout as ``busy_cluster``)."""
    cluster = Cluster.tianhe_1a(num_nodes=16)
    state = cluster.state
    state.assign_job(np.arange(0, 4), 0)
    state.set_load(np.arange(0, 4), cpu_util=0.3, mem_frac=0.2, nic_frac=0.1)
    state.assign_job(np.arange(4, 10), 1)
    state.set_load(np.arange(4, 10), cpu_util=0.9, mem_frac=0.5, nic_frac=0.3)
    state.assign_job(np.arange(10, 14), 2)
    state.set_load(np.arange(10, 14), cpu_util=0.6, mem_frac=0.4, nic_frac=0.2)
    return cluster


def drive_load(state, rng) -> None:
    """One seeded random-walk step of every busy node's CPU load."""
    busy = np.flatnonzero(state.job_id >= 0)
    u = np.clip(state.cpu_util[busy] + rng.normal(0, 0.1, len(busy)), 0.05, 1.0)
    state.set_load(
        busy,
        cpu_util=u,
        mem_frac=state.mem_frac[busy],
        nic_frac=state.nic_frac[busy],
    )


def tight_thresholds(cluster) -> tuple[float, float]:
    """P_L/P_H bracketing the initial power so all three states occur."""
    p0 = PowerModel(cluster.spec).system_power(cluster.state)
    return p0 * 0.93, p0 * 0.99


def build_manager(
    cluster,
    p_low: float,
    p_high: float,
    journal=None,
    actuator: DvfsActuator | None = None,
    fault_injector=None,
    obs=None,
) -> PowerManager:
    sets = NodeSets(cluster)
    model = PowerModel(cluster.spec)
    meter = SystemPowerMeter(model, cluster.state)
    return PowerManager(
        cluster,
        sets,
        meter,
        ThresholdController.fixed(p_low=p_low, p_high=p_high),
        make_policy("mpc"),
        steady_green_cycles=3,
        fault_injector=fault_injector,
        journal=journal,
        actuator=actuator,
        obs=obs,
    )


@pytest.fixture
def world() -> Cluster:
    return make_world()
