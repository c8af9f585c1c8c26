"""Direct coverage of :class:`HeterogeneousPowerModel`'s per-level tables.

The model's coefficient lookup is two-dimensional
(``table[spec_index, level]``); these tests pin that each node type is
priced from its *own* per-level table, that levels are validated and
clipped where the interface promises, and that broadcasting yields the
``(L, N)`` matrices the budget-partition baseline relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.power import (
    HeterogeneousPowerModel,
    NodePowerEstimator,
    PowerModel,
    make_power_model,
)

from tests.cluster.test_heterogeneous import hetero_cluster  # noqa: F401 (fixture)


def test_per_level_tables_match_each_types_own_model(hetero_cluster):
    """Every (type, level) cell prices exactly as that type's PowerModel."""
    model = HeterogeneousPowerModel(hetero_cluster.state)
    per_spec = [PowerModel(s) for s in hetero_cluster.state.specs]
    top = hetero_cluster.spec.top_level
    for node_id, spec_model in ((2, per_spec[0]), (10, per_spec[1])):
        for level in range(top + 1):
            got = model.evaluate_for_nodes(
                np.array([node_id]), level, 0.7, 0.4, 0.2
            )
            expected = spec_model.evaluate(level, 0.7, 0.4, 0.2)
            assert got[0] == expected


def test_level_out_of_range_is_rejected(hetero_cluster):
    model = HeterogeneousPowerModel(hetero_cluster.state)
    top = hetero_cluster.spec.top_level
    with pytest.raises(ConfigurationError, match="level"):
        model.evaluate_for_nodes(np.array([0]), top + 1, 0.5, 0.5, 0.5)
    with pytest.raises(ConfigurationError, match="level"):
        model.evaluate_for_nodes(np.array([0]), -1, 0.5, 0.5, 0.5)


def test_empty_ids_evaluate_to_empty(hetero_cluster):
    model = HeterogeneousPowerModel(hetero_cluster.state)
    out = model.evaluate_for_nodes(
        np.array([], dtype=np.int64), np.array([], dtype=np.int64), 0.5, 0.5, 0.5
    )
    assert out.shape == (0,)


def test_broadcast_levels_give_level_by_node_matrix(hetero_cluster):
    """(L, 1) levels × (N,) ids → (L, N), column per node, row per level."""
    model = HeterogeneousPowerModel(hetero_cluster.state)
    ids = np.array([0, 8])  # one node of each type
    levels = np.arange(3)[:, None]
    grid = model.evaluate_for_nodes(ids, levels, 0.8, 0.3, 0.1)
    assert grid.shape == (3, 2)
    for row, level in enumerate(range(3)):
        expected = model.evaluate_for_nodes(ids, level, 0.8, 0.3, 0.1)
        np.testing.assert_array_equal(grid[row], expected)


def test_node_power_uses_each_types_table(hetero_cluster):
    state = hetero_cluster.state
    state.set_load(np.arange(16), cpu_util=0.8, mem_frac=0.4, nic_frac=0.2)
    model = HeterogeneousPowerModel(state)
    per_node = model.node_power(state)
    assert per_node.shape == (16,)
    # Same load, same level — but the low-power blades (8..15) are cheaper.
    assert (per_node[:8] > per_node[8:]).all()


def test_mismatched_ladder_depth_is_rejected(hetero_cluster):
    state = hetero_cluster.state
    shallow = state.specs[0].__class__  # NodeSpec; rebuild with fewer levels
    from repro.cluster import DvfsTable, MemorySpec, NicSpec
    from repro.cluster.cpu import ProcessorSpec
    from repro.units import gib

    cpu = ProcessorSpec(
        name="shallow",
        cores=6,
        dvfs=DvfsTable.linear(5, 1.2e9, 2.2e9),
        max_power_w=60.0,
        idle_power_top_w=20.0,
        idle_power_bottom_w=12.0,
    )
    spec = shallow(
        processor=cpu,
        sockets=2,
        memory=MemorySpec(8, gib(4), 2.5, 1.2),
        nic=NicSpec(10e9, 10.0, 6.0),
        board_power_w=50.0,
    )
    state.specs = (state.specs[0], spec)
    with pytest.raises(ConfigurationError, match="ladder"):
        HeterogeneousPowerModel(state)


def test_make_power_model_dispatch(hetero_cluster, small_cluster):
    assert isinstance(make_power_model(hetero_cluster), HeterogeneousPowerModel)
    assert isinstance(make_power_model(small_cluster), PowerModel)


def test_degrade_savings_is_current_minus_one_level(hetero_cluster):
    state = hetero_cluster.state
    state.set_load(np.arange(16), cpu_util=0.9, mem_frac=0.5, nic_frac=0.2)
    model = HeterogeneousPowerModel(state)
    estimator = NodePowerEstimator(model)
    ids = np.arange(16)
    loads = (state.cpu_util[ids], state.mem_frac[ids], state.nic_frac[ids])

    def savings() -> np.ndarray:
        return estimator.estimate_savings(state.level[ids], *loads, node_ids=ids)

    current = model.evaluate_for_nodes(ids, state.level[ids], *loads)
    lower = model.evaluate_for_nodes(
        ids, np.maximum(state.level[ids] - 1, 0), *loads
    )
    np.testing.assert_array_equal(savings(), current - lower)
    assert (savings() > 0).all()  # everyone starts at the top level
    # A node already at the floor has nothing left to give.
    state.set_level(np.array([3]), 0)
    assert savings()[3] == 0.0
