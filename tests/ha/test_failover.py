"""HaController lifecycle: crash, downtime, takeover, fencing."""

import numpy as np
import pytest

from repro.core import PowerState
from repro.core.actuator import DvfsActuator
from repro.errors import PowerManagementError
from repro.faults import FaultScenario
from repro.ha import HaConfig, HaController, StateJournal
from repro.obs import Observability, ObsConfig

from tests.ha.conftest import build_manager, drive_load, tight_thresholds


class _Harness:
    """A world + HA controller with a scripted crash schedule."""

    def __init__(self, world, config, injector=None, obs=None):
        self.world = world
        self.rng = np.random.default_rng(7)
        p_low, p_high = tight_thresholds(world)
        self.journal = StateJournal(compact_every=8)
        self.actuator = DvfsActuator(world.state, injector)
        self._injector = injector

        def factory():
            return build_manager(
                world,
                p_low,
                p_high,
                journal=self.journal,
                actuator=self.actuator,
                fault_injector=injector,
                obs=obs,
            )

        self.factory = factory
        self.primary = factory()
        self.ha = HaController(self.primary, factory, self.journal, config)

    def run(self, cycles, start=1):
        reports = []
        for k in range(start, start + cycles):
            drive_load(self.world.state, self.rng)
            reports.append(self.ha.control_cycle(float(k)))
        return reports


class _ScriptedInjector:
    """Minimal injector: optional per-node telemetry drops, no faults."""

    def __init__(self, num_nodes):
        self.drop = np.zeros(num_nodes, dtype=bool)
        self.command_delay_cycles = 2
        self.scenario = FaultScenario.none()
        self.meter_outages = 0
        self.meter_outage_cycles = 0
        self.node_crashes = 0
        self.offline_node_cycles = 0
        self.corrupted_samples = 0
        self.corrupted_meter_readings = 0

    def begin_cycle(self, now):
        pass

    def meter_available(self):
        return True

    def perturb_meter(self, reading_w):
        return reading_w

    def telemetry_drop_mask(self, node_ids):
        return self.drop[np.asarray(node_ids, dtype=np.int64)]

    def corrupt_telemetry(self, node_ids, cpu_util, mem_frac, nic_frac):
        return np.zeros(len(node_ids), dtype=bool)

    def command_outcomes(self, node_ids):
        z = np.zeros(len(node_ids), dtype=bool)
        return z, z.copy()


def test_requires_enabled_config(world):
    harness = _Harness(world, HaConfig.warm())
    with pytest.raises(PowerManagementError):
        HaController(
            harness.primary, harness.factory, harness.journal, HaConfig()
        )


def test_crash_loses_the_cycle_and_warm_standby_takes_over(world):
    h = _Harness(world, HaConfig.warm(lease_timeout_cycles=3, crash_at_cycles=(5,)))
    reports = h.run(12)
    # Crash cycle + lease expiry: cycles 5..7 run open-loop.
    assert [r is None for r in reports] == [False] * 4 + [True] * 3 + [False] * 5
    stats = h.ha.stats()
    assert stats.crashes == 1
    assert stats.failovers == 1 and stats.warm_failovers == 1
    assert stats.cold_restarts == 0
    assert stats.downtime_cycles == 3
    assert stats.final_epoch == 1
    assert stats.epoch_conflicts == 0
    # The successor is a different manager restored to the crash point.
    assert h.ha.manager is not h.primary
    assert h.ha.manager.cycles == 9  # 12 HA cycles - 3 lost
    assert h.ha.manager.fencing_epoch == 1


def test_cold_restart_costs_restart_cycles(world):
    h = _Harness(
        world, HaConfig.restart_only(restart_cycles=6, crash_at_cycles=(3,))
    )
    reports = h.run(12)
    assert [r is None for r in reports] == [False] * 2 + [True] * 6 + [False] * 4
    stats = h.ha.stats()
    assert stats.warm_failovers == 0 and stats.cold_restarts == 1
    assert stats.downtime_cycles == 6


def test_back_to_back_crashes_exhaust_the_standby(world):
    # First crash consumes the warm standby; the second strikes before
    # its replacement finishes launching, so it pays a cold restart; the
    # third comes after the replacement is ready and is warm again.
    h = _Harness(
        world,
        HaConfig.warm(
            lease_timeout_cycles=1,
            restart_cycles=5,
            crash_at_cycles=(3, 5, 30),
        ),
    )
    h.run(40)
    stats = h.ha.stats()
    assert stats.crashes == 3
    assert stats.failovers == 3
    assert stats.warm_failovers == 2
    assert stats.cold_restarts == 1
    assert stats.downtime_cycles == 1 + 5 + 1
    assert stats.final_epoch == 3
    assert stats.epoch_conflicts == 0


def test_factory_must_share_the_live_actuator(world):
    h = _Harness(world, HaConfig.warm(lease_timeout_cycles=1, crash_at_cycles=(2,)))
    p_low, p_high = tight_thresholds(world)

    def rogue_factory():
        return build_manager(
            world,
            p_low,
            p_high,
            journal=h.journal,
            actuator=DvfsActuator(world.state),
        )

    ha = HaController(h.factory(), rogue_factory, h.journal, h.ha._config)
    drive_load(world.state, h.rng)
    ha.control_cycle(1.0)
    drive_load(world.state, h.rng)
    assert ha.control_cycle(2.0) is None  # crash cycle
    with pytest.raises(PowerManagementError):
        drive_load(world.state, h.rng)
        ha.control_cycle(3.0)  # takeover with a foreign actuator


def test_deposed_primary_is_fenced_out(world):
    h = _Harness(world, HaConfig.warm(lease_timeout_cycles=1, crash_at_cycles=(4,)))
    h.run(8)
    zombie = h.primary
    successor = h.ha.manager
    assert zombie is not successor
    assert zombie.deposed and not successor.deposed

    # The zombie wakes up and runs a cycle on a red-hot machine: its
    # decision carries commands, every one of which must bounce off the
    # fence — and its cycle must not be journaled.
    state = h.world.state
    busy = np.flatnonzero(state.job_id >= 0)
    state.set_load(busy, cpu_util=1.0, mem_frac=0.9, nic_frac=0.9)
    appended_before = h.journal.appended_total
    levels_before = state.level.copy()
    report = zombie.control_cycle(99.0)
    assert report.state in (PowerState.YELLOW, PowerState.RED)
    assert report.actuation.commands > 0
    assert report.actuation.fenced == report.actuation.commands
    assert report.actuation.effective == 0
    np.testing.assert_array_equal(state.level, levels_before)
    assert h.journal.appended_total == appended_before
    assert h.actuator.epoch_conflicts == 0


def test_restored_manager_holds_upgrades_until_candidates_reobserved(world):
    inj = _ScriptedInjector(16)
    obs = Observability(ObsConfig(metrics=True))
    h = _Harness(
        world,
        HaConfig.warm(lease_timeout_cycles=1, crash_at_cycles=(6,)),
        injector=inj,
        obs=obs,
    )

    def pending() -> float:
        return obs.metrics.value_of("repro_recovery_pending_nodes")

    h.run(6)  # cycles 1..5 act, cycle 6 crashes
    assert pending() == 0

    # Node 5 goes dark across the takeover: the successor may not
    # upgrade anything until node 5 reports fresh telemetry again.
    inj.drop[5] = True
    h.run(4, start=7)  # cycle 7 is downtime, 8..10 run the successor
    successor = h.ha.manager
    assert successor is not h.primary
    assert pending() == 1

    inj.drop[5] = False
    h.run(1, start=11)
    assert pending() == 0


def test_journal_and_fault_free_run_agree(world):
    # An HA run with no crashes behaves exactly like a bare manager.
    h = _Harness(world, HaConfig.warm())
    reports = h.run(20)
    assert all(r is not None for r in reports)
    stats = h.ha.stats()
    assert stats.crashes == 0 and stats.failovers == 0
    assert stats.final_epoch == 0
    assert stats.journal_records == 20
    assert stats.journal_compactions == 2  # compact_every=8 over 20 cycles
    assert h.ha.manager is h.primary
