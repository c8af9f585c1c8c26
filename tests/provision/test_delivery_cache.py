"""The provision runtime's cached delivery state never goes stale.

:class:`ProvisionRuntime` computes surviving capacity and the per-rack
branch limits when their inputs change (construction and every
``begin_cycle``) instead of on every read, and folds a read-only
node-power array that owns its data into racks once, so a cycle's
overload check and settle share the fold.  These tests recompute
capacity and limits from the runtime's live inputs after every cycle of
every preset, and check that an array that can change is folded afresh.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.provision import PowerTopology, ProvisionRuntime, ProvisionScenario
from repro.sim import RandomSource

NUM_NODES = 16
TOPOLOGY = PowerTopology(
    feed_capacities_w=(600.0, 500.0, 400.0),
    branch_rated_w=300.0,
    nodes_per_rack=4,
    num_nodes=NUM_NODES,
)
CYCLES = 1500


def _fresh_capacity(rt: ProvisionRuntime) -> float:
    cap = TOPOLOGY.surviving_capacity_w(rt.feed_live)
    if rt._operator_cap_w is not None:
        cap = min(cap, rt._operator_cap_w)
    return cap


@pytest.mark.parametrize("preset", ProvisionScenario.preset_names())
def test_cached_delivery_equals_a_fresh_recomputation(preset):
    scenario = ProvisionScenario.preset(preset)
    rt = ProvisionRuntime(TOPOLOGY, scenario, rng=RandomSource(seed=11))
    capacities = set()
    for cycle in range(CYCLES):
        rt.begin_cycle(10.0 * cycle)
        assert rt.capacity_w == _fresh_capacity(rt)
        limits = rt.branch_limits_w
        np.testing.assert_array_equal(
            limits, TOPOLOGY.branch_ratings_w() * rt._derate
        )
        assert not limits.flags.writeable
        with pytest.raises(ValueError):
            limits[0] = 0.0
        capacities.add(rt.capacity_w)
    stats = rt.stats()
    if preset == "grid-storm":
        # The stochastic feed and PDU processes both fired.
        assert stats.feed_losses and stats.feed_restores and stats.pdu_failures
    if preset in ("feed-loss", "cap-order", "grid-storm"):
        assert len(capacities) > 1
    if preset == "pdu-failure":
        assert stats.pdu_failures == 1


def _twins():
    scenario = ProvisionScenario.breaker_stress()
    return (
        ProvisionRuntime(TOPOLOGY, scenario),
        ProvisionRuntime(TOPOLOGY, scenario),
    )


def test_settle_reuses_the_fold_of_a_read_only_array():
    shared, fresh = _twins()
    power = np.full(NUM_NODES, 150.0)  # each rack at twice its rating
    power.setflags(write=False)
    for step in range(1, 12):
        shared.branch_overloads(power)
        tripped = shared.settle(10.0 * step, 10.0, power)
        expected = fresh.settle(10.0 * step, 10.0, power.copy())
        np.testing.assert_array_equal(tripped, expected)
        assert shared.last_branch_over_w == fresh.last_branch_over_w
    assert shared.breaker_trips == fresh.breaker_trips > 0


def test_settle_folds_a_writable_array_again():
    """A writable array may change between the overload check and the
    settle; the settle must integrate what it is given."""
    shared, fresh = _twins()
    power = np.full(NUM_NODES, 90.0)
    shared.branch_overloads(power)
    power[:] = 10.0
    shared.settle(10.0, 10.0, power)
    fresh.settle(10.0, 10.0, np.full(NUM_NODES, 10.0))
    assert shared.last_branch_over_w == fresh.last_branch_over_w == 0.0
    np.testing.assert_array_equal(
        shared.breakers.trip_integral, fresh.breakers.trip_integral
    )


def test_a_read_only_view_of_a_writable_array_is_folded_again():
    """Its base can still change, so the view's fold is not kept."""
    shared, fresh = _twins()
    base = np.full(NUM_NODES, 90.0)
    view = base.view()
    view.setflags(write=False)
    shared.branch_overloads(view)
    base[:] = 10.0
    shared.settle(10.0, 10.0, view)
    fresh.settle(10.0, 10.0, np.full(NUM_NODES, 10.0))
    assert shared.last_branch_over_w == fresh.last_branch_over_w == 0.0
    np.testing.assert_array_equal(
        shared.breakers.trip_integral, fresh.breakers.trip_integral
    )
