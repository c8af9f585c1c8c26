"""Estimation and policy plumbing on heterogeneous clusters."""

import numpy as np

from repro.core import NodeSets, PowerThresholds
from repro.core.policies import PolicyContext, make_policy
from repro.power import NodePowerEstimator, make_power_model
from repro.telemetry import TelemetryCollector

from tests.cluster.test_heterogeneous import hetero_cluster  # noqa: F401 (fixture)


def test_estimator_requires_ids_to_disambiguate_types(hetero_cluster):
    """With node ids, the estimator prices the same operating point
    differently per node type."""
    estimator = NodePowerEstimator(make_power_model(hetero_cluster))
    level = np.array([9, 9])
    util = np.array([0.8, 0.8])
    mem = np.array([0.4, 0.4])
    nic = np.array([0.1, 0.1])
    powers = estimator.estimate_nodes(level, util, mem, nic, node_ids=np.array([0, 8]))
    assert powers[0] > powers[1]  # Tianhe blade vs low-power blade


def test_estimate_savings_per_type(hetero_cluster):
    estimator = NodePowerEstimator(make_power_model(hetero_cluster))
    level = np.array([9, 9])
    util = np.array([0.9, 0.9])
    savings = estimator.estimate_savings(
        level, util, np.array([0.5, 0.5]), np.array([0.2, 0.2]),
        node_ids=np.array([0, 8]),
    )
    assert savings[0] > savings[1] > 0


def test_policy_context_job_table_is_type_aware(hetero_cluster):
    """Two jobs with identical loads but on different node types rank
    by *watts*, so the hot-blade job is the MPC target."""
    state = hetero_cluster.state
    state.assign_job(np.arange(0, 4), 0)   # hot blades
    state.set_load(np.arange(0, 4), 0.8, 0.4, 0.2)
    state.assign_job(np.arange(8, 12), 1)  # low-power blades, same load
    state.set_load(np.arange(8, 12), 0.8, 0.4, 0.2)

    sets = NodeSets(hetero_cluster)
    collector = TelemetryCollector(state, sets.candidates)
    estimator = NodePowerEstimator(make_power_model(hetero_cluster))
    snapshot = collector.collect(1.0)
    ctx = PolicyContext(
        snapshot, None, estimator, 5000.0,
        PowerThresholds(p_low=4000.0, p_high=6000.0),
    )
    assert ctx.job_table.power_of(0) > ctx.job_table.power_of(1)
    np.testing.assert_array_equal(
        make_policy("mpc").select(ctx), np.arange(0, 4)
    )
    # LPC symmetrically picks the low-power job.
    np.testing.assert_array_equal(
        make_policy("lpc").select(ctx), np.arange(8, 12)
    )


def test_homogeneous_estimator_ignores_ids(estimator):
    level = np.array([9, 5])
    util = np.array([0.5, 0.5])
    mem = np.array([0.3, 0.3])
    nic = np.array([0.1, 0.1])
    with_ids = estimator.estimate_nodes(level, util, mem, nic, node_ids=np.array([3, 7]))
    without = estimator.estimate_nodes(level, util, mem, nic)
    np.testing.assert_allclose(with_ids, without)
