"""Unit tests for Algorithm 1 (the power capping algorithm)."""

import numpy as np
import pytest

from repro.core import NodeSets, PowerCappingAlgorithm, PowerState
from repro.core.capping import CappingAction
from repro.core.policies import SelectionPolicy, make_policy
from repro.errors import ConfigurationError, PowerManagementError

from tests.core.conftest import ContextBuilder


@pytest.fixture
def algo(busy_cluster):
    sets = NodeSets(busy_cluster)
    return PowerCappingAlgorithm(sets, busy_cluster.spec.top_level, steady_green_cycles=3)


@pytest.fixture
def builder(busy_cluster):
    return ContextBuilder(busy_cluster)


def test_green_below_tg_does_nothing(algo, builder):
    mpc = make_policy("mpc")
    decision = algo.decide(PowerState.GREEN, builder.snap(), mpc)
    assert decision.action is CappingAction.NONE
    assert decision.num_targets == 0
    assert decision.time_in_green == 1
    assert algo.time_in_green == 1


def test_green_without_degraded_never_upgrades(algo, builder):
    mpc = make_policy("mpc")
    for i in range(10):
        decision = algo.decide(PowerState.GREEN, builder.snap(), mpc)
        assert decision.action is CappingAction.NONE
    assert algo.time_in_green == 10


def test_yellow_degrades_policy_selection(algo, builder, busy_cluster):
    mpc = make_policy("mpc")
    ctx = builder.snap()
    decision = algo.decide(PowerState.YELLOW, ctx, mpc)
    assert decision.action is CappingAction.DEGRADE
    np.testing.assert_array_equal(decision.node_ids, np.arange(4, 10))
    top = busy_cluster.spec.top_level
    np.testing.assert_array_equal(decision.new_levels, np.full(6, top - 1))
    np.testing.assert_array_equal(algo.degraded_nodes, np.arange(4, 10))
    assert algo.time_in_green == 0


def test_yellow_resets_green_timer(algo, builder):
    mpc = make_policy("mpc")
    algo.decide(PowerState.GREEN, builder.snap(), mpc)
    assert algo.time_in_green == 1
    algo.decide(PowerState.YELLOW, builder.snap(), mpc)
    assert algo.time_in_green == 0


def test_yellow_empty_selection_is_none_action(algo, builder, busy_cluster):
    busy_cluster.state.set_levels(np.arange(16), 0)  # nothing degradable
    mpc = make_policy("mpc")
    decision = algo.decide(PowerState.YELLOW, builder.snap(), mpc)
    assert decision.action is CappingAction.NONE


def test_steady_green_upgrades_degraded(algo, builder, busy_cluster):
    mpc = make_policy("mpc")
    # Degrade once (yellow), then stay green for T_g = 3 cycles.
    decision = algo.decide(PowerState.YELLOW, builder.snap(), mpc)
    busy_cluster.state.set_levels(decision.node_ids, decision.new_levels)
    for _ in range(2):
        d = algo.decide(PowerState.GREEN, builder.snap(), mpc)
        assert d.action is CappingAction.NONE
    d = algo.decide(PowerState.GREEN, builder.snap(), mpc)  # 3rd green cycle
    assert d.action is CappingAction.UPGRADE
    np.testing.assert_array_equal(d.node_ids, np.arange(4, 10))
    top = busy_cluster.spec.top_level
    np.testing.assert_array_equal(d.new_levels, np.full(6, top))
    # Nodes reached the top ⇒ removed from A_degraded.
    assert len(algo.degraded_nodes) == 0


def test_steady_green_upgrades_every_cycle_until_top(busy_cluster):
    """Time_g is not reset by an upgrade: each further green cycle lifts
    the remaining degraded nodes another level (Figure 2 semantics)."""
    sets = NodeSets(busy_cluster)
    algo = PowerCappingAlgorithm(sets, busy_cluster.spec.top_level, steady_green_cycles=2)
    builder = ContextBuilder(busy_cluster)
    mpc = make_policy("mpc")
    # Push job 1's nodes down 3 levels via three yellow cycles.
    for _ in range(3):
        d = algo.decide(PowerState.YELLOW, builder.snap(), mpc)
        busy_cluster.state.set_levels(d.node_ids, d.new_levels)
    top = busy_cluster.spec.top_level
    assert np.all(busy_cluster.state.level[4:10] == top - 3)
    # Green cycle 1: no upgrade (Time_g = 1 < 2); cycles 2..4 upgrade.
    assert algo.decide(PowerState.GREEN, builder.snap(), mpc).action is CappingAction.NONE
    for expected in (top - 2, top - 1, top):
        d = algo.decide(PowerState.GREEN, builder.snap(), mpc)
        assert d.action is CappingAction.UPGRADE
        busy_cluster.state.set_levels(d.node_ids, d.new_levels)
        assert np.all(busy_cluster.state.level[4:10] == expected)
    assert len(algo.degraded_nodes) == 0


def test_red_drops_all_candidates_to_lowest(algo, builder, busy_cluster):
    mpc = make_policy("mpc")
    decision = algo.decide(PowerState.RED, builder.snap(), mpc)
    assert decision.action is CappingAction.EMERGENCY
    np.testing.assert_array_equal(decision.node_ids, np.arange(16))
    np.testing.assert_array_equal(decision.new_levels, np.zeros(16, dtype=np.int64))
    np.testing.assert_array_equal(algo.degraded_nodes, np.arange(16))
    assert algo.time_in_green == 0


def test_red_with_empty_candidate_set(busy_cluster):
    sets = NodeSets(busy_cluster, np.empty(0, dtype=np.int64))
    algo = PowerCappingAlgorithm(sets, busy_cluster.spec.top_level)
    builder = ContextBuilder(busy_cluster, candidate_ids=np.empty(0, dtype=np.int64))
    decision = algo.decide(PowerState.RED, builder.snap(), make_policy("mpc"))
    assert decision.action is CappingAction.NONE


def test_recovery_after_red(algo, builder, busy_cluster):
    mpc = make_policy("mpc")
    d = algo.decide(PowerState.RED, builder.snap(), mpc)
    busy_cluster.state.set_levels(d.node_ids, d.new_levels)
    # 3 green cycles to reach steady green, then upgrades start.
    for _ in range(2):
        algo.decide(PowerState.GREEN, builder.snap(), mpc)
    d = algo.decide(PowerState.GREEN, builder.snap(), mpc)
    assert d.action is CappingAction.UPGRADE
    np.testing.assert_array_equal(d.new_levels, np.ones(16, dtype=np.int64))


def test_policy_selecting_non_candidate_rejected(busy_cluster):
    sets = NodeSets(busy_cluster, np.arange(8))  # candidates 0..7 only
    algo = PowerCappingAlgorithm(sets, busy_cluster.spec.top_level)
    builder = ContextBuilder(busy_cluster, candidate_ids=np.arange(8))

    class Rogue(SelectionPolicy):
        name = "rogue"

        def select(self, ctx):
            return np.array([12])  # outside the candidate set

    with pytest.raises(PowerManagementError):
        algo.decide(PowerState.YELLOW, builder.snap(), Rogue())


def test_policy_selecting_idle_node_rejected(algo, builder):
    class Rogue(SelectionPolicy):
        name = "rogue"

        def select(self, ctx):
            return np.array([15])  # idle node

    with pytest.raises(PowerManagementError):
        algo.decide(PowerState.YELLOW, builder.snap(), Rogue())


def test_policy_selecting_floor_node_rejected(algo, builder, busy_cluster):
    busy_cluster.state.set_level(4, 0)

    class Rogue(SelectionPolicy):
        name = "rogue"

        def select(self, ctx):
            return np.array([4])  # already at the lowest level

    with pytest.raises(PowerManagementError):
        algo.decide(PowerState.YELLOW, builder.snap(), Rogue())


def test_construction_validation(busy_cluster):
    sets = NodeSets(busy_cluster)
    with pytest.raises(ConfigurationError):
        PowerCappingAlgorithm(sets, busy_cluster.spec.top_level, steady_green_cycles=0)
    with pytest.raises(ConfigurationError):
        PowerCappingAlgorithm(sets, -1)
