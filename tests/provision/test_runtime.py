"""Unit tests for the live power-delivery runtime."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.power import thermal
from repro.provision import PowerTopology, ProvisionRuntime, ProvisionScenario
from repro.provision import runtime
from repro.sim import RandomSource

NUM_NODES = 8


def _topology(**overrides):
    kwargs = dict(
        feed_capacities_w=(600.0, 400.0),
        branch_rated_w=300.0,
        nodes_per_rack=4,
        num_nodes=NUM_NODES,
    )
    kwargs.update(overrides)
    return PowerTopology(**kwargs)


def _runtime(scenario, topology=None, rng=None):
    return ProvisionRuntime(topology or _topology(), scenario, rng=rng)


def _drive(rt, cycles, period=10.0):
    for cycle in range(cycles):
        rt.begin_cycle(cycle * period)


def _fast_breakers(monkeypatch):
    """Breakers that trip after 30 s of 2x overload, not 60 s."""
    monkeypatch.setattr(thermal, "TRIP_TIME_S", 30.0)


# ----------------------------------------------------------------------
# Scheduled events
# ----------------------------------------------------------------------
def test_healthy_scenario_never_changes_capacity():
    rt = _runtime(ProvisionScenario.none())
    _drive(rt, 20)
    assert rt.capacity_w == 1000.0
    assert rt.min_capacity_w == 1000.0
    assert not rt.stats().feed_losses


def test_scheduled_feed_loss_shrinks_capacity():
    rt = _runtime(ProvisionScenario(feed_loss_at_cycle=2))
    _drive(rt, 2)
    assert rt.capacity_w == 1000.0
    events = rt.begin_cycle(20.0)  # cycle 2
    assert events.feed_losses == 1
    assert rt.capacity_w == 400.0  # feed 0 (600 W) gone
    assert rt.stats().feed_losses == 1
    assert rt.min_capacity_w == 400.0


def test_scheduled_feed_restore_returns_capacity():
    rt = _runtime(
        ProvisionScenario(feed_loss_at_cycle=1, feed_restore_after_cycles=2)
    )
    _drive(rt, 3)  # cycles 0..2: loss fired at 1
    assert rt.capacity_w == 400.0
    events = rt.begin_cycle(30.0)  # cycle 3 = 1 + 2
    assert events.feed_restores == 1
    assert rt.capacity_w == 1000.0
    assert rt.stats().feed_restores == 1


def test_begin_cycle_idempotent_per_instant():
    rt = _runtime(ProvisionScenario(feed_loss_at_cycle=0))
    first = rt.begin_cycle(0.0)
    again = rt.begin_cycle(0.0)
    assert first.feed_losses == 1
    assert again is first
    assert rt.stats().feed_losses == 1  # not double-counted


def test_pdu_failure_derates_one_branch(monkeypatch):
    monkeypatch.setattr(runtime, "PDU_FAILURE_RACK", 1)
    monkeypatch.setattr(runtime, "PDU_DERATE_FRACTION", 0.5)
    rt = _runtime(ProvisionScenario(pdu_failure_at_cycle=1))
    _drive(rt, 2)
    np.testing.assert_allclose(rt.branch_limits_w, [300.0, 150.0])
    # Global capacity is untouched: it is a branch-local failure.
    assert rt.capacity_w == 1000.0
    assert rt.stats().pdu_failures == 1


def test_cap_order_onset_and_expiry():
    rt = _runtime(
        ProvisionScenario(
            cap_order_at_cycle=1,
            cap_order_fraction=0.5,
            cap_order_duration_cycles=2,
        )
    )
    rt.begin_cycle(0.0)
    events = rt.begin_cycle(10.0)
    assert events.cap_order_started
    assert rt.capacity_w == 500.0
    rt.begin_cycle(20.0)
    assert rt.capacity_w == 500.0
    events = rt.begin_cycle(30.0)  # cycle 3 >= 1 + 2: order expires
    assert events.cap_order_ended
    assert rt.capacity_w == 1000.0
    assert rt.stats().cap_orders == 1


def test_stochastic_scenario_requires_rng():
    with pytest.raises(ConfigurationError, match="RandomSource"):
        _runtime(ProvisionScenario.preset("grid-storm"))


def test_stochastic_events_deterministic_from_seed():
    def capacities(seed):
        rt = _runtime(
            ProvisionScenario.preset("grid-storm"),
            rng=RandomSource(seed=seed),
        )
        out = []
        for cycle in range(200):
            rt.begin_cycle(cycle * 10.0)
            out.append(rt.capacity_w)
        return out

    assert capacities(7) == capacities(7)


def test_provision_stream_does_not_perturb_other_streams():
    seed = 11
    untouched = RandomSource(seed=seed)
    used = RandomSource(seed=seed)
    rt = _runtime(ProvisionScenario.preset("grid-storm"), rng=used)
    _drive(rt, 100)
    assert (
        untouched.stream("workload").random()
        == used.stream("workload").random()
    )


# ----------------------------------------------------------------------
# Settle: breaker physics and exposure accounting
# ----------------------------------------------------------------------
def test_settle_zero_dt_is_a_noop():
    rt = _runtime(ProvisionScenario.none())
    tripped = rt.settle(0.0, 0.0, np.full(NUM_NODES, 100.0))
    assert len(tripped) == 0


def test_settle_accumulates_capacity_loss_exposure():
    rt = _runtime(ProvisionScenario(feed_loss_at_cycle=0))
    rt.begin_cycle(0.0)  # capacity now 400, design 1000
    rt.settle(10.0, 10.0, np.full(NUM_NODES, 10.0))
    assert rt.capacity_lost_w_seconds == pytest.approx(600.0 * 10.0)


def test_settle_accounts_branch_violation_seconds():
    rt = _runtime(ProvisionScenario.none())
    rt.begin_cycle(0.0)
    # Rack 0 draws 320 W against a 300 W limit.
    power = np.concatenate([np.full(4, 80.0), np.full(4, 10.0)])
    rt.settle(10.0, 10.0, power)
    assert rt.branch_cap_violation_seconds == pytest.approx(10.0)
    assert rt.last_branch_over_w == pytest.approx(20.0)


def test_sustained_overload_trips_the_breaker_and_blacks_out_the_rack(monkeypatch):
    _fast_breakers(monkeypatch)
    rt = _runtime(ProvisionScenario())
    rt.begin_cycle(0.0)
    # Rack 0 at 2x rating: trips once the integral accumulates 30 s.
    power = np.concatenate([np.full(4, 150.0), np.full(4, 10.0)])
    tripped = rt.settle(10.0, 10.0, power)
    assert len(tripped) == 0
    tripped = rt.settle(20.0, 10.0, power)
    assert len(tripped) == 0
    tripped = rt.settle(30.0, 10.0, power)
    np.testing.assert_array_equal(tripped, [0])
    assert rt.breaker_trips == 1
    np.testing.assert_array_equal(rt.tripped_racks, [0])
    np.testing.assert_array_equal(rt.dark_nodes, [0, 1, 2, 3])


def test_derated_pdu_heats_breaker_at_previously_safe_load(monkeypatch):
    _fast_breakers(monkeypatch)
    monkeypatch.setattr(runtime, "PDU_DERATE_FRACTION", 0.5)
    rt = _runtime(ProvisionScenario(pdu_failure_at_cycle=0))
    rt.begin_cycle(0.0)
    # 300 W on a branch derated to 150 W deliverable = 2x overload.
    power = np.concatenate([np.full(4, 75.0), np.full(4, 10.0)])
    for step in range(1, 4):
        tripped = rt.settle(step * 10.0, 10.0, power)
    np.testing.assert_array_equal(tripped, [0])


def test_branch_overloads_reports_hot_racks_only():
    rt = _runtime(ProvisionScenario.none())
    power = np.concatenate([np.full(4, 70.0), np.full(4, 10.0)])
    np.testing.assert_array_equal(rt.branch_overloads(power), [0])
    np.testing.assert_array_equal(
        rt.branch_overloads(np.full(NUM_NODES, 10.0)), []
    )


def test_headroom_sign():
    rt = _runtime(ProvisionScenario.none())
    assert rt.headroom_w(900.0) == pytest.approx(100.0)
    assert rt.headroom_w(1100.0) == pytest.approx(-100.0)
