"""Integration tests: the whole stack wired together by hand.

These build the full pipeline the way ``run_experiment`` does — cluster,
scheduler, workload, manager — but drive it explicitly so each coupling
(executor↔state, manager↔actuator, scheduler↔allocator) is exercised and
observable from the outside.
"""

import numpy as np

from repro.cluster import Cluster
from repro.core import (
    NodeSets,
    PowerManager,
    PowerState,
    ThresholdController,
)
from repro.core.policies import make_policy
from repro.power import PowerModel, SystemPowerMeter
from repro.scheduler import BatchScheduler, KeepQueueFilledFeeder
from repro.sim import RandomSource
from repro.workload import JobExecutor, RandomJobGenerator


def _build_world(seed=11, num_nodes=32):
    rng = RandomSource(seed=seed)
    cluster = Cluster.tianhe_1a(num_nodes=num_nodes)
    model = PowerModel(cluster.spec)
    generator = RandomJobGenerator(
        rng.stream("gen"), runtime_scale=0.01, nprocs_choices=(8, 16, 32, 64)
    )
    executor = JobExecutor(cluster.state, rng.stream("exec"))
    scheduler = BatchScheduler(cluster, executor, KeepQueueFilledFeeder(generator))
    return cluster, model, scheduler


def test_cluster_fills_and_completes_jobs():
    cluster, model, scheduler = _build_world()
    for t in range(1, 301):
        scheduler.tick(float(t), 1.0)
    assert len(scheduler.finished_jobs) > 10
    assert cluster.state.busy_mask().sum() > 0
    # Power stays inside physical bounds throughout.
    power = model.system_power(cluster.state)
    floor = cluster.num_nodes * cluster.spec.min_power()
    assert floor <= power <= cluster.theoretical_max_power()


def test_manager_keeps_power_under_control():
    cluster, model, scheduler = _build_world()
    # Uncapped warmup to find the peak.
    peak = 0.0
    for t in range(1, 201):
        scheduler.tick(float(t), 1.0)
        peak = max(peak, model.system_power(cluster.state))

    sets = NodeSets(cluster)
    meter = SystemPowerMeter(model, cluster.state)
    thresholds = ThresholdController.from_training(peak)
    manager = PowerManager(
        cluster, sets, meter, thresholds, make_policy("mpc"), steady_green_cycles=5
    )
    power = []
    for t in range(201, 801):
        scheduler.tick(float(t), 1.0)
        power.append(manager.control_cycle(float(t)).power_w)

    # One control cycle and one reported power sample per tick.
    assert manager.cycles == 600
    assert len(power) == 600
    # Yellow-state control engaged at least once and degraded something.
    assert manager.state_count(PowerState.YELLOW) > 0
    assert manager.actuator.levels_lowered > 0
    # The capped trajectory respects physics.
    assert max(power) <= cluster.theoretical_max_power()


def test_degraded_jobs_actually_slow_down():
    cluster, model, scheduler = _build_world()
    for t in range(1, 61):
        scheduler.tick(float(t), 1.0)
    running = scheduler.running_jobs
    assert running
    # Force-degrade one running job's nodes to the floor.
    victim = running[0]
    cluster.state.set_levels(victim.nodes, 0)
    before = victim.progress_s
    scheduler.tick(61.0, 1.0)
    step = victim.progress_s - before
    if victim.state.value == "running":
        assert step < 1.0  # strictly slower than real time


def test_privileged_nodes_never_touched():
    cluster, model, scheduler = _build_world(seed=4)
    privileged = np.array([0, 1, 2, 3])
    cluster.set_privileged_nodes(privileged)
    sets = NodeSets(cluster)
    meter = SystemPowerMeter(model, cluster.state)
    # Thresholds so low the manager is always in red: maximal throttling.
    thresholds = ThresholdController.fixed(p_low=1.0, p_high=2.0)
    manager = PowerManager(cluster, sets, meter, thresholds, make_policy("mpc"))
    top = cluster.spec.top_level
    for t in range(1, 101):
        scheduler.tick(float(t), 1.0)
        manager.control_cycle(float(t))
    # Privileged nodes stay at the top level; candidates are floored.
    assert np.all(cluster.state.level[privileged] == top)
    assert np.all(cluster.state.level[4:] == 0)
    assert manager.ever_entered_red()
