"""Tests for actuation reports, the raise clamp and command re-issue."""

import numpy as np

from repro.core import DvfsActuator, PowerState
from repro.core import actuator
from repro.core.actuator import ActuationReport
from repro.core.capping import CappingAction, CappingDecision


def _decision(action, node_ids, new_levels, state=PowerState.YELLOW):
    return CappingDecision(
        state=state,
        action=action,
        node_ids=np.asarray(node_ids, dtype=np.int64),
        new_levels=np.asarray(new_levels, dtype=np.int64),
        time_in_green=0,
    )


class _ScriptedOutcomes:
    """Fault-injector stand-in: a queue of (lost, delayed) masks.

    Each ``command_outcomes`` call pops one entry; an exhausted queue
    lands everything.
    """

    def __init__(self, outcomes=(), delay_cycles=2):
        self._outcomes = list(outcomes)
        self.command_delay_cycles = delay_cycles

    def command_outcomes(self, node_ids):
        n = len(node_ids)
        if self._outcomes:
            lost, delayed = self._outcomes.pop(0)
            return (
                np.asarray(lost, dtype=bool)[:n],
                np.asarray(delayed, dtype=bool)[:n],
            )
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)


# ----------------------------------------------------------------------
# ActuationReport accounting (fault-free)
# ----------------------------------------------------------------------
def test_report_counts_effective_commands(busy_cluster):
    act = DvfsActuator(busy_cluster.state)
    report = act.apply(_decision(CappingAction.DEGRADE, [4, 5], [8, 8]))
    assert isinstance(report, ActuationReport)
    assert report.commands == 2
    assert report.effective == 2
    assert report.noop == 0
    assert report.lost == 0 and report.delayed == 0
    assert report.landed == 2


def test_report_counts_noops(busy_cluster):
    act = DvfsActuator(busy_cluster.state)
    act.apply(_decision(CappingAction.DEGRADE, [4, 5], [8, 8]))
    report = act.apply(_decision(CappingAction.DEGRADE, [4, 5], [8, 8]))
    assert report.effective == 0
    assert report.noop == 2
    assert act.noop_commands == 2
    assert act.effective_commands == 2


def test_report_none_action_empty(busy_cluster):
    act = DvfsActuator(busy_cluster.state)
    report = act.apply(_decision(CappingAction.NONE, [], [], PowerState.GREEN))
    assert report == ActuationReport()


# ----------------------------------------------------------------------
# The never-upgrade-on-stale clamp
# ----------------------------------------------------------------------
def test_raise_clamp_suppresses_upgrade(busy_cluster):
    state = busy_cluster.state
    state.set_levels(np.array([4, 5]), 5)
    act = DvfsActuator(state)
    raise_ok = np.ones(state.num_nodes, dtype=bool)
    raise_ok[5] = False  # node 5's telemetry is stale
    report = act.apply(
        _decision(CappingAction.UPGRADE, [4, 5], [6, 6], PowerState.GREEN),
        raise_ok=raise_ok,
    )
    assert state.level[4] == 6
    assert state.level[5] == 5  # unchanged
    assert report.effective == 1
    assert report.suppressed == 1
    assert act.suppressed_commands == 1


def test_raise_clamp_never_blocks_degrades(busy_cluster):
    state = busy_cluster.state
    act = DvfsActuator(state)
    raise_ok = np.zeros(state.num_nodes, dtype=bool)  # everything stale
    report = act.apply(
        _decision(CappingAction.DEGRADE, [4, 5], [8, 8]), raise_ok=raise_ok
    )
    assert report.effective == 2
    assert state.level[4] == 8


def test_stale_degrade_command_cannot_raise_actual_level(busy_cluster):
    """A DEGRADE computed from a stale snapshot may command a level above
    the node's actual one; the clamp must catch it."""
    state = busy_cluster.state
    state.set_levels(np.array([4]), 6)  # actual level 6
    act = DvfsActuator(state)
    raise_ok = np.zeros(state.num_nodes, dtype=bool)
    # Stale snapshot showed level 9, so the controller commands 8 — an
    # actual raise from 6.
    report = act.apply(
        _decision(CappingAction.DEGRADE, [4], [8]), raise_ok=raise_ok
    )
    assert state.level[4] == 6
    assert report.suppressed == 1


# ----------------------------------------------------------------------
# Loss, retry with backoff, delay, supersede
# ----------------------------------------------------------------------
def test_lost_command_retried_and_lands(busy_cluster):
    state = busy_cluster.state
    inj = _ScriptedOutcomes([([True, False], [False, False])])
    act = DvfsActuator(state, inj)
    act.begin_cycle()
    report = act.apply(_decision(CappingAction.DEGRADE, [4, 5], [8, 8]))
    assert report.lost == 1
    assert report.effective == 1
    assert state.level[4] == 9  # command to node 4 lost
    assert state.level[5] == 8
    assert act.pending_commands == 1
    # First retry is due one cycle later and (queue exhausted) lands.
    landed = act.begin_cycle()
    assert landed == 1
    assert state.level[4] == 8
    assert act.retried_commands == 1
    assert act.pending_commands == 0


def test_retries_back_off_exponentially(busy_cluster):
    state = busy_cluster.state
    # First issue lost, retry 1 lost, retry 2 lost, retry 3 lands.
    inj = _ScriptedOutcomes(
        [([True], [False]), ([True], [False]), ([True], [False])]
    )
    act = DvfsActuator(state, inj)
    act.begin_cycle()  # cycle 1
    act.apply(_decision(CappingAction.DEGRADE, [4], [8]))
    # Backoff gaps double: retry 1 at cycle 2 (+1), retry 2 at cycle 4
    # (+2), retry 3 at cycle 8 (+4) — which finally lands.
    landings = [act.begin_cycle() for _ in range(7)]  # cycles 2..8
    assert landings == [0, 0, 0, 0, 0, 0, 1]
    assert state.level[4] == 8
    assert act.lost_commands == 3
    assert act.retried_commands == 1
    assert act.abandoned_commands == 0


def test_command_abandoned_after_max_retries(busy_cluster, monkeypatch):
    monkeypatch.setattr(actuator, "MAX_RETRIES", 2)
    state = busy_cluster.state
    inj = _ScriptedOutcomes([([True], [False])] * 10)
    act = DvfsActuator(state, inj)
    act.begin_cycle()
    act.apply(_decision(CappingAction.DEGRADE, [4], [8]))
    for _ in range(10):
        act.begin_cycle()
    assert act.abandoned_commands == 1
    assert act.pending_commands == 0
    assert state.level[4] == 9  # never landed


def test_delayed_command_lands_late(busy_cluster):
    state = busy_cluster.state
    inj = _ScriptedOutcomes([([False], [True])], delay_cycles=2)
    act = DvfsActuator(state, inj)
    act.begin_cycle()  # cycle 1
    report = act.apply(_decision(CappingAction.DEGRADE, [4], [8]))
    assert report.delayed == 1
    assert state.level[4] == 9
    assert act.begin_cycle() == 0  # cycle 2: not due yet
    assert act.begin_cycle() == 1  # cycle 3: lands
    assert state.level[4] == 8
    # A clean (never-lost) late landing is not counted as retried.
    assert act.retried_commands == 0


def test_newer_command_supersedes_pending(busy_cluster):
    state = busy_cluster.state
    inj = _ScriptedOutcomes([([True], [False])])
    act = DvfsActuator(state, inj)
    act.begin_cycle()
    act.apply(_decision(CappingAction.DEGRADE, [4], [8]))  # lost, queued
    assert act.pending_commands == 1
    act.apply(_decision(CappingAction.DEGRADE, [4], [7]))  # supersedes
    assert act.pending_commands == 0
    assert state.level[4] == 7
    act.begin_cycle()
    assert state.level[4] == 7  # the stale level-8 retry never lands


def test_late_raise_clamped_by_current_cycle_mask(busy_cluster):
    """A raise in flight must not land on a node that went stale."""
    state = busy_cluster.state
    state.set_levels(np.array([4]), 5)
    inj = _ScriptedOutcomes([([False], [True])], delay_cycles=1)
    act = DvfsActuator(state, inj)
    act.begin_cycle()
    ok = np.ones(state.num_nodes, dtype=bool)
    act.apply(
        _decision(CappingAction.UPGRADE, [4], [6], PowerState.GREEN),
        raise_ok=ok,  # fresh at issue time
    )
    stale_now = np.zeros(state.num_nodes, dtype=bool)
    act.begin_cycle(raise_ok=stale_now)  # node went stale while in flight
    assert state.level[4] == 5
    assert act.suppressed_commands == 1
