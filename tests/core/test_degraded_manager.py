"""Tests for the manager's degraded-mode fail-safe ladder."""

import numpy as np
import pytest

from repro.core import NodeSets, PowerManager, PowerState, ThresholdController
from repro.core.policies import make_policy
from repro.errors import DegradedModeError
from repro.faults import FaultStats, degraded
from repro.power import PowerModel, SystemPowerMeter


class _FakeInjector:
    """Scripted injector: flip ``meter_up`` / ``drop`` between cycles."""

    def __init__(self, num_nodes):
        self.meter_up = True
        self.drop = np.zeros(num_nodes, dtype=bool)
        self.command_delay_cycles = 2
        # Accounting consumed by fault_report().
        self.meter_outages = 0
        self.meter_outage_cycles = 0
        self.node_crashes = 0
        self.offline_node_cycles = 0
        self.corrupted_samples = 0
        self.corrupted_meter_readings = 0
        self.meter_clamped_readings = 0

    def begin_cycle(self, now):
        if not self.meter_up:
            self.meter_outage_cycles += 1

    def meter_available(self):
        return self.meter_up

    def perturb_meter(self, reading_w):
        return reading_w

    def telemetry_drop_mask(self, node_ids):
        return self.drop[np.asarray(node_ids, dtype=np.int64)]

    def corrupt_telemetry(self, node_ids, cpu_util, mem_frac, nic_frac):
        return np.zeros(len(node_ids), dtype=bool)

    def command_outcomes(self, node_ids):
        z = np.zeros(len(node_ids), dtype=bool)
        return z, z.copy()


def _manager(cluster, p_low, p_high, injector, t_g=2):
    sets = NodeSets(cluster)
    model = PowerModel(cluster.spec)
    meter = SystemPowerMeter(model, cluster.state)
    thresholds = ThresholdController.fixed(p_low=p_low, p_high=p_high)
    return PowerManager(
        cluster,
        sets,
        meter,
        thresholds,
        make_policy("mpc"),
        steady_green_cycles=t_g,
        fault_injector=injector,
    ), meter


JOB1 = np.arange(4, 10)  # the most power-consuming job in busy_cluster


def _quiet(state):
    """Drop every job's load so true power falls well below P_L."""
    for ids in (np.arange(0, 4), JOB1, np.arange(10, 14)):
        state.set_load(ids, cpu_util=0.05, mem_frac=0.05, nic_frac=0.05)


# ----------------------------------------------------------------------
# Rung 1: meter outage
# ----------------------------------------------------------------------
def test_meter_outage_runs_on_formula1_estimate(busy_cluster):
    inj = _FakeInjector(16)
    model = PowerModel(busy_cluster.spec)
    p_ref = model.system_power(busy_cluster.state)
    manager, _ = _manager(busy_cluster, p_ref * 1.1, p_ref * 1.3, inj)
    metered = manager.control_cycle(1.0)
    assert metered.metered and not metered.degraded
    inj.meter_up = False
    report = manager.control_cycle(2.0)
    assert not report.metered
    assert report.degraded
    assert report.power_w > 0.0
    # The estimate is anchored to the last metered reading, so with an
    # unchanged machine it stays near it.
    assert report.power_w == pytest.approx(metered.power_w, rel=0.15)
    assert manager.fault_report().estimated_power_cycles == 1


def test_no_upgrade_while_meter_is_out(busy_cluster):
    state = busy_cluster.state
    inj = _FakeInjector(16)
    model = PowerModel(busy_cluster.spec)
    p_ref = model.system_power(state)
    # Start just above P_L: the first cycle is yellow and degrades job 1.
    manager, _ = _manager(busy_cluster, p_ref * 0.98, p_ref * 1.5, inj)
    report = manager.control_cycle(1.0)
    assert report.state is PowerState.YELLOW
    assert np.all(state.level[JOB1] == 8)

    _quiet(state)  # power collapses -> green from now on
    inj.meter_up = False
    for t in (2.0, 3.0, 4.0, 5.0):
        report = manager.control_cycle(t)
        assert report.state is PowerState.GREEN
        assert np.all(state.level[JOB1] == 8), "upgraded on estimated power"

    inj.meter_up = True  # meter returns; steady green may restore now
    manager.control_cycle(6.0)
    assert np.all(state.level[JOB1] == 9)


def test_degraded_error_without_any_estimation_basis(busy_cluster):
    busy_cluster.set_privileged_nodes(np.arange(16))  # empty candidate set
    inj = _FakeInjector(16)
    inj.meter_up = False
    manager, _ = _manager(busy_cluster, 1e5, 2e5, inj)
    with pytest.raises(DegradedModeError):
        manager.control_cycle(1.0)


# ----------------------------------------------------------------------
# Rung 2: stale telemetry never upgrades
# ----------------------------------------------------------------------
def test_stale_node_waits_for_fresh_data_before_upgrade(busy_cluster, monkeypatch):
    monkeypatch.setattr(degraded, "MAX_STALE_AGE_S", 1.5)
    state = busy_cluster.state
    inj = _FakeInjector(16)
    model = PowerModel(busy_cluster.spec)
    p_ref = model.system_power(state)
    manager, _ = _manager(
        busy_cluster,
        p_ref * 0.98,
        p_ref * 1.5,
        inj,
        t_g=3,
    )
    report = manager.control_cycle(1.0)
    assert report.state is PowerState.YELLOW
    assert np.all(state.level[JOB1] == 8)

    _quiet(state)
    inj.drop[4] = True  # node 4's agent goes dark
    manager.control_cycle(2.0)  # green, Time_g = 1, age(4) = 1
    manager.control_cycle(3.0)  # green, Time_g = 2, age(4) = 2 -> stale
    report = manager.control_cycle(4.0)  # steady green: upgrades begin
    assert report.state is PowerState.GREEN
    assert np.all(state.level[np.arange(5, 10)] == 9)
    assert state.level[4] == 8  # stale node held back
    assert 4 in manager.capping.degraded_nodes

    manager.control_cycle(5.0)  # still dark, still held
    assert state.level[4] == 8

    inj.drop[4] = False  # agent recovers: fresh sample this cycle
    manager.control_cycle(6.0)
    assert state.level[4] == 9
    assert len(manager.capping.degraded_nodes) == 0


# ----------------------------------------------------------------------
# Rung 3: candidate-set blackout forces red
# ----------------------------------------------------------------------
def test_telemetry_blackout_forces_red(busy_cluster, monkeypatch):
    monkeypatch.setattr(degraded, "BLACKOUT_COVERAGE", 0.5)
    monkeypatch.setattr(degraded, "BLACKOUT_CYCLES", 3)
    state = busy_cluster.state
    inj = _FakeInjector(16)
    model = PowerModel(busy_cluster.spec)
    p_ref = model.system_power(state)
    manager, _ = _manager(
        busy_cluster,
        p_ref * 1.2,  # comfortably green on real data
        p_ref * 1.5,
        inj,
    )
    inj.drop[:] = True  # the whole candidate set goes dark
    reports = [manager.control_cycle(float(t)) for t in range(1, 5)]
    assert all(r.coverage == 0.0 for r in reports)
    assert [r.forced_red for r in reports] == [False, False, True, True]
    assert reports[2].state is PowerState.RED
    assert manager.fault_report().forced_red_cycles == 2
    assert np.all(state.level == 0)  # emergency floor landed

    inj.drop[:] = False  # telemetry returns: streak resets
    report = manager.control_cycle(5.0)
    assert not report.forced_red
    assert report.coverage == 1.0


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_fault_report_assembles_stats(busy_cluster):
    inj = _FakeInjector(16)
    model = PowerModel(busy_cluster.spec)
    p_ref = model.system_power(busy_cluster.state)
    manager, _ = _manager(busy_cluster, p_ref * 1.2, p_ref * 1.5, inj)
    inj.drop[3] = True
    manager.control_cycle(1.0)
    inj.meter_up = False
    manager.control_cycle(2.0)
    stats = manager.fault_report()
    assert isinstance(stats, FaultStats)
    assert stats.dropped_samples == 2
    assert stats.estimated_power_cycles == 1
    assert stats.meter_outage_cycles == 1
    assert stats.commands_lost == 0


def test_fault_free_manager_reports_nothing(busy_cluster):
    model = PowerModel(busy_cluster.spec)
    p_ref = model.system_power(busy_cluster.state)
    sets = NodeSets(busy_cluster)
    meter = SystemPowerMeter(model, busy_cluster.state)
    thresholds = ThresholdController.fixed(p_low=p_ref * 1.1, p_high=p_ref * 1.3)
    manager = PowerManager(
        busy_cluster, sets, meter, thresholds, make_policy("mpc")
    )
    report = manager.control_cycle(1.0)
    assert report.metered
    assert report.coverage == 1.0
    assert not report.forced_red and not report.degraded
    assert manager.fault_report() is None
    assert manager.fault_injector is None


def test_reports_flag_degraded_sensing_with_injector(busy_cluster):
    inj = _FakeInjector(16)
    model = PowerModel(busy_cluster.spec)
    p_ref = model.system_power(busy_cluster.state)
    manager, _ = _manager(busy_cluster, p_ref * 1.2, p_ref * 1.5, inj)
    first = manager.control_cycle(1.0)
    inj.meter_up = False
    second = manager.control_cycle(2.0)
    assert [first.degraded, second.degraded] == [False, True]
    assert first.coverage == 1.0
