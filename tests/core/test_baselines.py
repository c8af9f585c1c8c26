"""Unit tests for the related-work baseline controllers."""

import numpy as np

from repro.core import NodeSets, ThresholdController, baselines
from repro.core.baselines import BudgetPartitionManager, MimoFeedbackManager
from repro.core.policies import make_policy
from repro.power import PowerModel, SystemPowerMeter


def _manager(cluster, cls, p_low, p_high):
    model = PowerModel(cluster.spec)
    return cls(
        cluster,
        NodeSets(cluster),
        SystemPowerMeter(model, cluster.state),
        ThresholdController.fixed(p_low=p_low, p_high=p_high),
        make_policy("mpc"),
    )


def _current_power(cluster):
    return PowerModel(cluster.spec).system_power(cluster.state)


# ----------------------------------------------------------------------
# MimoFeedbackManager
# ----------------------------------------------------------------------
def test_mimo_throttles_on_positive_error(busy_cluster):
    power = _current_power(busy_cluster)
    mgr = _manager(
        busy_cluster, MimoFeedbackManager, p_low=power * 0.9, p_high=power * 2
    )
    top = busy_cluster.spec.top_level
    report = mgr.control_cycle(1.0)
    assert report.acted
    # Some busy nodes were pushed down one level; idle nodes untouched.
    assert np.any(busy_cluster.state.level[:14] == top - 1)
    assert np.all(busy_cluster.state.level[14:] == top)


def test_mimo_ignores_job_structure(busy_cluster, monkeypatch):
    """Unlike MPC, MIMO selects individual nodes by savings — it may
    split a job (here: throttle only part of the heavy job)."""
    monkeypatch.setattr(baselines, "GAIN", 1.0)
    power = _current_power(busy_cluster)
    # A tiny error: shedding needs only one node's savings.
    mgr = _manager(
        busy_cluster, MimoFeedbackManager, p_low=power - 10.0, p_high=power * 2
    )
    mgr.control_cycle(1.0)
    heavy = busy_cluster.state.level[4:10]
    assert 0 < np.sum(heavy < busy_cluster.spec.top_level) < 6


def test_mimo_releases_with_headroom(busy_cluster):
    power = _current_power(busy_cluster)
    busy_cluster.state.set_levels(np.arange(4, 10), 5)  # pre-degraded
    mgr = _manager(
        busy_cluster, MimoFeedbackManager, p_low=power * 2, p_high=power * 3
    )
    before = busy_cluster.state.level[4:10].copy()
    report = mgr.control_cycle(1.0)
    assert report.acted
    assert np.all(busy_cluster.state.level[4:10] >= before)
    assert np.any(busy_cluster.state.level[4:10] == 6)


def test_mimo_deadband_does_nothing(busy_cluster):
    power = _current_power(busy_cluster)
    # Setpoint barely above current power: inside the release margin.
    mgr = _manager(
        busy_cluster, MimoFeedbackManager, p_low=power * 1.01, p_high=power * 2
    )
    report = mgr.control_cycle(1.0)
    assert not report.acted


def test_mimo_nothing_to_throttle(busy_cluster):
    busy_cluster.state.set_levels(np.arange(16), 0)
    power = _current_power(busy_cluster)
    mgr = _manager(
        busy_cluster, MimoFeedbackManager, p_low=power * 0.5, p_high=power * 2
    )
    report = mgr.control_cycle(1.0)
    assert not report.acted


def test_mimo_gain_scales_response(busy_cluster, monkeypatch):
    power = _current_power(busy_cluster)

    def nodes_touched(gain):
        monkeypatch.setattr(baselines, "GAIN", gain)
        cluster_copy = busy_cluster  # fresh state per call below
        cluster_copy.state.set_levels(np.arange(16), cluster_copy.spec.top_level)
        mgr = _manager(
            cluster_copy, MimoFeedbackManager, p_low=power * 0.85,
            p_high=power * 2,
        )
        report = mgr.control_cycle(1.0)
        return report.decision.num_targets

    assert nodes_touched(1.0) >= nodes_touched(0.2)


# ----------------------------------------------------------------------
# BudgetPartitionManager
# ----------------------------------------------------------------------
def test_budget_clamps_to_shares(busy_cluster):
    power = _current_power(busy_cluster)
    mgr = _manager(
        busy_cluster, BudgetPartitionManager, p_low=power * 0.8, p_high=power * 2
    )
    mgr.control_cycle(1.0)
    # With an 80% budget something must have been clamped down.
    assert np.any(busy_cluster.state.level < busy_cluster.spec.top_level)
    # And the estimated power now fits the budget (approximately: the
    # discrete ladder may undershoot, never overshoot by construction).
    assert _current_power(busy_cluster) <= power * 0.8 * 1.02


def test_budget_restores_when_budget_ample(busy_cluster):
    busy_cluster.state.set_levels(np.arange(16), 2)
    power_floor = _current_power(busy_cluster)
    mgr = _manager(
        busy_cluster, BudgetPartitionManager, p_low=power_floor * 3,
        p_high=power_floor * 4,
    )
    mgr.control_cycle(1.0)
    assert np.all(
        busy_cluster.state.level[:14] == busy_cluster.spec.top_level
    )


def test_budget_uniform_vs_proportional(busy_cluster, monkeypatch):
    """Proportional shares give heavy nodes more headroom than uniform.

    The uniform split (the manager's zero-demand fallback) is computed
    here from the same cycle's context: each node at the highest level
    whose estimate fits an even share of the budget."""
    power = _current_power(busy_cluster)
    contexts = []
    decide = BudgetPartitionManager._decide

    def spy(self, state, ctx):
        contexts.append(ctx)
        return decide(self, state, ctx)

    monkeypatch.setattr(BudgetPartitionManager, "_decide", spy)
    mgr = _manager(
        busy_cluster, BudgetPartitionManager, p_low=power * 0.85, p_high=power * 2
    )
    mgr.control_cycle(1.0)
    proportional = busy_cluster.state.level.copy()

    (ctx,) = contexts
    snap = ctx.snapshot
    unmonitored = max(0.0, ctx.system_power - float(ctx.node_power.sum()))
    share = max(0.0, ctx.thresholds.p_low - unmonitored) / snap.size
    levels = np.arange(busy_cluster.spec.num_levels)
    fits = ctx.estimator.model.evaluate_for_nodes(
        snap.node_ids,
        levels[:, None],
        snap.cpu_util[None, :],
        snap.mem_frac[None, :],
        snap.nic_frac[None, :],
    ) <= share
    top = levels[-1]
    uniform = np.where(fits.any(axis=0), top - np.argmax(fits[::-1], axis=0), 0)
    # Heavy job (nodes 4..9) keeps higher levels under proportional shares.
    assert proportional[4:10].mean() >= uniform[4:10].mean()


def test_budget_stable_once_converged(busy_cluster):
    power = _current_power(busy_cluster)
    mgr = _manager(
        busy_cluster, BudgetPartitionManager, p_low=power * 0.8, p_high=power * 2
    )
    mgr.control_cycle(1.0)
    levels = busy_cluster.state.level.copy()
    report = mgr.control_cycle(2.0)
    # Same loads, same budget ⇒ no further commands.
    assert not report.acted
    np.testing.assert_array_equal(busy_cluster.state.level, levels)
