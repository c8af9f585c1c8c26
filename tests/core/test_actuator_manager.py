"""Unit tests for the DVFS actuator and the assembled power manager."""

import numpy as np
import pytest

from repro.core import (
    DvfsActuator,
    NodeSets,
    PowerManager,
    PowerState,
    ThresholdController,
)
from repro.core.capping import CappingAction, CappingDecision
from repro.core.policies import make_policy
from repro.errors import PowerManagementError
from repro.power import PowerModel, SystemPowerMeter


def _decision(action, node_ids, new_levels, state=PowerState.YELLOW):
    return CappingDecision(
        state=state,
        action=action,
        node_ids=np.asarray(node_ids, dtype=np.int64),
        new_levels=np.asarray(new_levels, dtype=np.int64),
        time_in_green=0,
    )


# ----------------------------------------------------------------------
# DvfsActuator
# ----------------------------------------------------------------------
def test_actuator_applies_levels(busy_cluster):
    act = DvfsActuator(busy_cluster.state)
    act.apply(_decision(CappingAction.DEGRADE, [4, 5], [8, 8]))
    assert busy_cluster.state.level[4] == 8
    assert act.commands_sent == 2
    assert act.levels_lowered == 2
    assert act.levels_raised == 0


def test_actuator_counts_raises(busy_cluster):
    act = DvfsActuator(busy_cluster.state)
    busy_cluster.state.set_levels(np.array([4, 5]), 5)
    act.apply(_decision(CappingAction.UPGRADE, [4, 5], [6, 6], PowerState.GREEN))
    assert act.levels_raised == 2


def test_actuator_none_action_is_noop(busy_cluster):
    act = DvfsActuator(busy_cluster.state)
    before = busy_cluster.state.level.copy()
    act.apply(
        _decision(CappingAction.NONE, [], [], PowerState.GREEN)
    )
    np.testing.assert_array_equal(busy_cluster.state.level, before)
    assert act.commands_sent == 0


def test_actuator_emergency_counter(busy_cluster):
    act = DvfsActuator(busy_cluster.state)
    act.apply(
        _decision(CappingAction.EMERGENCY, np.arange(16), np.zeros(16), PowerState.RED)
    )
    assert act.emergencies == 1
    assert np.all(busy_cluster.state.level == 0)


def test_actuator_rejects_privileged_nodes(busy_cluster):
    busy_cluster.set_privileged_nodes([4])
    act = DvfsActuator(busy_cluster.state)
    with pytest.raises(PowerManagementError):
        act.apply(_decision(CappingAction.DEGRADE, [4], [8]))


def test_actuator_release_restores_levels(busy_cluster):
    act = DvfsActuator(busy_cluster.state)
    ids = np.array([4, 5, 6])
    busy_cluster.state.set_levels(ids, 0)
    top = busy_cluster.spec.top_level
    assert act.release(ids, top) == 3
    assert np.all(busy_cluster.state.level[ids] == top)
    # Teardown path, not a control command: no command statistics.
    assert act.commands_sent == 0


def test_actuator_release_current_epoch_lands(busy_cluster):
    act = DvfsActuator(busy_cluster.state)
    current = act.advance_epoch()
    ids = np.array([4, 5])
    busy_cluster.state.set_levels(ids, 0)
    top = busy_cluster.spec.top_level
    assert act.release(ids, top, epoch=current) == 2
    assert np.all(busy_cluster.state.level[ids] == top)
    assert act.fenced_commands == 0


def test_actuator_release_stale_epoch_is_fenced(busy_cluster):
    act = DvfsActuator(busy_cluster.state)
    stale = act.advance_epoch()
    act.advance_epoch()
    ids = np.array([4, 5])
    busy_cluster.state.set_levels(ids, 0)
    assert act.release(ids, busy_cluster.spec.top_level, epoch=stale) == 0
    assert np.all(busy_cluster.state.level[ids] == 0)
    assert act.fenced_commands == 2


def test_actuator_release_empty_is_noop(busy_cluster):
    act = DvfsActuator(busy_cluster.state)
    before = busy_cluster.state.level.copy()
    assert act.release(np.empty(0, dtype=np.int64), 0) == 0
    np.testing.assert_array_equal(busy_cluster.state.level, before)


def test_decision_alignment_validated():
    with pytest.raises(PowerManagementError):
        CappingDecision(
            state=PowerState.YELLOW,
            action=CappingAction.DEGRADE,
            node_ids=np.array([1, 2]),
            new_levels=np.array([1]),
            time_in_green=0,
        )


# ----------------------------------------------------------------------
# PowerManager
# ----------------------------------------------------------------------
def _manager(cluster, policy_name="mpc", p_low=None, p_high=None):
    sets = NodeSets(cluster)
    model = PowerModel(cluster.spec)
    meter = SystemPowerMeter(model, cluster.state)
    if p_low is None:
        thresholds = ThresholdController.from_training(meter.true_power() * 1.2)
    else:
        thresholds = ThresholdController.fixed(p_low=p_low, p_high=p_high)
    return PowerManager(
        cluster, sets, meter, thresholds, make_policy(policy_name),
        steady_green_cycles=2,
    )


def test_manager_green_cycle_no_action(busy_cluster):
    mgr = _manager(busy_cluster)
    report = mgr.control_cycle(1.0)
    assert report.state is PowerState.GREEN
    assert not report.acted
    assert mgr.cycles == 1
    assert mgr.state_count(PowerState.GREEN) == 1


def test_manager_yellow_cycle_degrades(busy_cluster):
    model = PowerModel(busy_cluster.spec)
    current = model.system_power(busy_cluster.state)
    mgr = _manager(busy_cluster, p_low=current * 0.9, p_high=current * 1.5)
    report = mgr.control_cycle(1.0)
    assert report.state is PowerState.YELLOW
    assert report.acted
    top = busy_cluster.spec.top_level
    assert np.all(busy_cluster.state.level[4:10] == top - 1)
    assert mgr.actuator.levels_lowered == 6


def test_manager_red_cycle_emergency(busy_cluster):
    model = PowerModel(busy_cluster.spec)
    current = model.system_power(busy_cluster.state)
    mgr = _manager(busy_cluster, p_low=current * 0.5, p_high=current * 0.8)
    report = mgr.control_cycle(1.0)
    assert report.state is PowerState.RED
    assert np.all(busy_cluster.state.level == 0)
    assert mgr.ever_entered_red()


def test_manager_records_series(busy_cluster):
    """Each cycle's report is its record; collected, they are the series."""
    mgr = _manager(busy_cluster)
    reports = [mgr.control_cycle(1.0), mgr.control_cycle(2.0)]
    assert mgr.cycles == 2
    assert [r.time for r in reports] == [1.0, 2.0]
    assert all(r.power_w > 0 for r in reports)


def test_manager_full_loop_degrade_then_recover(busy_cluster):
    """Yellow pushes down; sustained green restores to the top."""
    model = PowerModel(busy_cluster.spec)
    current = model.system_power(busy_cluster.state)
    mgr = _manager(busy_cluster, p_low=current - 50.0, p_high=current * 1.5)
    top = busy_cluster.spec.top_level

    report = mgr.control_cycle(1.0)
    assert report.state is PowerState.YELLOW  # degraded job 1 by one level
    assert np.all(busy_cluster.state.level[4:10] == top - 1)

    # Degradation lowered power below P_L ⇒ green; after T_g = 2 green
    # cycles the nodes are restored.
    r2 = mgr.control_cycle(2.0)
    assert r2.state is PowerState.GREEN
    r3 = mgr.control_cycle(3.0)
    assert r3.state is PowerState.GREEN
    assert r3.decision.action is CappingAction.UPGRADE
    assert np.all(busy_cluster.state.level[4:10] == top)


def test_manager_with_empty_candidates(busy_cluster):
    sets = NodeSets(busy_cluster, np.empty(0, dtype=np.int64))
    model = PowerModel(busy_cluster.spec)
    meter = SystemPowerMeter(model, busy_cluster.state)
    thresholds = ThresholdController.fixed(p_low=1.0, p_high=2.0)  # always red
    mgr = PowerManager(busy_cluster, sets, meter, thresholds, make_policy("mpc"))
    report = mgr.control_cycle(1.0)  # must not crash, nothing to do
    assert report.state is PowerState.RED
    assert not report.acted


def test_manager_threshold_observation(busy_cluster):
    mgr = _manager(busy_cluster)
    before = mgr.thresholds.running_peak
    busy_cluster.state.set_load(np.arange(14), 1.0, 0.9, 0.9)
    mgr.control_cycle(1.0)
    assert mgr.thresholds.running_peak >= before
