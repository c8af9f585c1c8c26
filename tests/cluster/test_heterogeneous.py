"""Tests for heterogeneous-cluster support (paper: Algorithm 1 works on
heterogeneous systems with discrete power states)."""

import numpy as np
import pytest

from repro.cluster import Cluster, DvfsTable, MemorySpec, NicSpec, NodeSpec
from repro.cluster.cpu import ProcessorSpec
from repro.errors import ConfigurationError
from repro.power import (
    HeterogeneousPowerModel,
    NodePowerEstimator,
    PowerModel,
    PowerProvision,
    make_power_model,
)
from repro.units import gib


def _low_power_spec() -> NodeSpec:
    """A lower-power node type sharing ladder depth and cores with the
    Tianhe blade (e.g. a reduced-TDP SKU)."""
    cpu = ProcessorSpec(
        name="lp-sku",
        cores=6,
        dvfs=DvfsTable.linear(10, 1.2e9, 2.2e9),
        max_power_w=60.0,
        idle_power_top_w=20.0,
        idle_power_bottom_w=12.0,
    )
    return NodeSpec(
        processor=cpu,
        sockets=2,
        memory=MemorySpec(8, gib(4), 2.5, 1.2),
        nic=NicSpec(10e9, 10.0, 6.0),
        board_power_w=50.0,
    )


@pytest.fixture
def hetero_cluster() -> Cluster:
    """8 Tianhe blades + 8 low-power blades."""
    return Cluster.heterogeneous(
        [(NodeSpec.tianhe_1a(), 8), (_low_power_spec(), 8)]
    )


def test_construction_and_identity(hetero_cluster):
    assert hetero_cluster.num_nodes == 16
    assert hetero_cluster.is_heterogeneous
    assert hetero_cluster.spec_of(0).processor.name == "Intel Xeon X5670"
    assert hetero_cluster.spec_of(8).processor.name == "lp-sku"
    np.testing.assert_array_equal(
        hetero_cluster.state.spec_index, [0] * 8 + [1] * 8
    )


def test_homogeneous_cluster_reports_single_type(small_cluster):
    assert not small_cluster.is_heterogeneous
    assert small_cluster.state.spec_of(0) is small_cluster.spec


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        Cluster.heterogeneous([])
    with pytest.raises(ConfigurationError):
        Cluster.heterogeneous([(NodeSpec.tianhe_1a(), 0)])
    # Different ladder depth rejected.
    shallow_cpu = ProcessorSpec(
        "shallow", 6, DvfsTable.linear(5, 1.2e9, 2.2e9), 60.0, 20.0, 12.0
    )
    shallow = NodeSpec(shallow_cpu, 2, MemorySpec(8, gib(4), 2.5, 1.2),
                       NicSpec(10e9, 10.0, 6.0), 50.0)
    with pytest.raises(ConfigurationError):
        Cluster.heterogeneous([(NodeSpec.tianhe_1a(), 2), (shallow, 2)])
    # Different core count rejected.
    fat_cpu = ProcessorSpec(
        "fat", 8, DvfsTable.linear(10, 1.2e9, 2.2e9), 60.0, 20.0, 12.0
    )
    fat = NodeSpec(fat_cpu, 2, MemorySpec(8, gib(4), 2.5, 1.2),
                   NicSpec(10e9, 10.0, 6.0), 50.0)
    with pytest.raises(ConfigurationError):
        Cluster.heterogeneous([(NodeSpec.tianhe_1a(), 2), (fat, 2)])


def test_power_model_factory(hetero_cluster, small_cluster):
    assert isinstance(make_power_model(hetero_cluster), HeterogeneousPowerModel)
    assert isinstance(make_power_model(small_cluster), PowerModel)


def test_hetero_power_matches_per_group_models(hetero_cluster):
    """Per-node power must equal what each group's homogeneous model says."""
    state = hetero_cluster.state
    rng = np.random.default_rng(0)
    state.level[:] = rng.integers(0, 10, 16)
    state.cpu_util[:] = rng.random(16)
    state.mem_frac[:] = rng.random(16)
    state.nic_frac[:] = rng.random(16)

    hetero = HeterogeneousPowerModel(state)
    per_node = hetero.node_power(state)
    for group, spec in enumerate(state.specs):
        homo = PowerModel(spec)
        ids = np.flatnonzero(state.spec_index == group)
        expected = homo.evaluate(
            state.level[ids], state.cpu_util[ids],
            state.mem_frac[ids], state.nic_frac[ids],
        )
        np.testing.assert_allclose(per_node[ids], expected)
    assert hetero.system_power(state) == pytest.approx(per_node.sum())


def test_same_level_different_watts(hetero_cluster):
    """The same DVFS level draws different power on different types."""
    model = make_power_model(hetero_cluster)
    big = model.evaluate_for_nodes(np.array([0]), 9, 0.9, 0.5, 0.2)
    small = model.evaluate_for_nodes(np.array([8]), 9, 0.9, 0.5, 0.2)
    assert big[0] > small[0]


def test_evaluate_for_nodes_matrix_broadcast(hetero_cluster):
    model = make_power_model(hetero_cluster)
    levels = np.arange(10, dtype=np.int64)
    ids = np.arange(16, dtype=np.int64)
    matrix = model.evaluate_for_nodes(
        ids, levels[:, None], 0.5, 0.3, 0.1
    )
    assert matrix.shape == (10, 16)
    assert np.all(np.diff(matrix, axis=0) > 0)  # monotone in level


def test_theoretical_and_minimum_power_mixed(hetero_cluster):
    state = hetero_cluster.state
    expected_max = 8 * state.specs[0].max_power() + 8 * state.specs[1].max_power()
    assert hetero_cluster.theoretical_max_power() == pytest.approx(expected_max)
    expected_min = 8 * state.specs[0].min_power() + 8 * state.specs[1].min_power()
    # With nothing privileged the red state's floor is every node idle
    # at its lowest level.
    floor = PowerProvision(capability_w=expected_max).throttled_floor(hetero_cluster)
    assert floor == pytest.approx(expected_min)


def test_speed_of_uses_each_nodes_ladder(hetero_cluster):
    state = hetero_cluster.state
    state.set_levels(np.array([0, 8]), 0)
    speeds = state.speed_of(np.array([0, 8]))
    assert speeds[0] == pytest.approx(1.60 / 2.93, rel=1e-6)
    assert speeds[1] == pytest.approx(1.2 / 2.2, rel=1e-6)


def test_degrade_savings_hetero(hetero_cluster):
    state = hetero_cluster.state
    state.set_load(np.arange(16), 0.9, 0.5, 0.2)
    ids = np.arange(16)
    estimator = NodePowerEstimator(HeterogeneousPowerModel(state))
    savings = estimator.estimate_savings(
        state.level, state.cpu_util, state.mem_frac, state.nic_frac, node_ids=ids
    )
    assert np.all(savings > 0)
    # The hotter type saves more watts per level step.
    assert savings[:8].mean() > savings[8:].mean()


def test_full_capping_loop_on_hetero_cluster(hetero_cluster):
    """Algorithm 1 + MPC runs end to end on a mixed machine."""
    from repro.core import NodeSets, PowerManager, ThresholdController
    from repro.core.policies import make_policy
    from repro.power import SystemPowerMeter

    state = hetero_cluster.state
    state.assign_job(np.arange(0, 6), 0)
    state.set_load(np.arange(0, 6), 0.9, 0.5, 0.3)
    state.assign_job(np.arange(8, 14), 1)
    state.set_load(np.arange(8, 14), 0.9, 0.5, 0.3)

    model = make_power_model(hetero_cluster)
    meter = SystemPowerMeter(model, state)
    current = meter.true_power()
    manager = PowerManager(
        hetero_cluster,
        NodeSets(hetero_cluster),
        meter,
        ThresholdController.fixed(p_low=current * 0.9, p_high=current * 1.5),
        make_policy("mpc"),
    )
    report = manager.control_cycle(1.0)
    assert report.acted
    # MPC picks the high-power job (type-0 nodes draw more watts).
    assert np.all(state.level[0:6] == hetero_cluster.spec.top_level - 1)
    assert np.all(state.level[8:14] == hetero_cluster.spec.top_level)
