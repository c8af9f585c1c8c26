"""Controller crash-recovery — failover sweep and the fencing invariant.

Two questions, answered across a full crash-timing sweep:

1. **Does fencing reject every pre-crash in-flight command?**  A
   deterministic world where every first command issue fails and is
   retried guarantees commands are in flight on (almost) every cycle;
   crashing the controller at *each* cycle of the window in turn must
   leave ``epoch_conflicts == 0`` (no cycle acted on by two manager
   epochs — i.e. zero double-applies) and must fence exactly the
   commands that were in flight at the crash, no more, no fewer.

2. **What does a crash cost at experiment scale?**  ``run_failover``
   pairs each crashed run with its uncrashed twin and reports downtime,
   failover counts and the worst post-recovery power divergence, for
   warm-standby and cold-restart deployments.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import Table
from repro.cluster import Cluster
from repro.core import NodeSets, PowerManager, ThresholdController
from repro.core.actuator import DvfsActuator
from repro.core.policies import make_policy
from repro.experiments import ExperimentConfig, run_failover
from repro.faults import FaultScenario
from repro.ha import HaConfig, HaController, StateJournal
from repro.power import PowerModel, SystemPowerMeter

from benchmarks.conftest import print_banner


# ----------------------------------------------------------------------
# Part 1: the fencing invariant, exhaustively over crash timing
# ----------------------------------------------------------------------
class _RetryInjector:
    """Every node's *first* command issue is lost and retried next cycle.

    This keeps the actuator's in-flight queue non-empty after every
    acting cycle, so a crash at any point has commands to strand.
    """

    def __init__(self, num_nodes: int) -> None:
        self._failed_once: set[int] = set()
        self.command_delay_cycles = 2
        self.scenario = FaultScenario.none()
        self.meter_outages = 0
        self.meter_outage_cycles = 0
        self.node_crashes = 0
        self.offline_node_cycles = 0
        self._num_nodes = num_nodes

    def begin_cycle(self, now: float) -> None:
        pass

    def meter_available(self) -> bool:
        return True

    def perturb_meter(self, reading_w: float) -> float:
        return reading_w

    def corrupt_telemetry(self, node_ids, cpu_util, mem_frac, nic_frac):
        return np.zeros(len(node_ids), dtype=bool)

    def telemetry_drop_mask(self, node_ids):
        return np.zeros(len(node_ids), dtype=bool)

    def command_outcomes(self, node_ids):
        lost = np.asarray(
            [int(i) not in self._failed_once for i in node_ids], dtype=bool
        )
        self._failed_once.update(int(i) for i in node_ids)
        return lost, np.zeros(len(node_ids), dtype=bool)


def _make_fencing_world():
    cluster = Cluster.tianhe_1a(num_nodes=16)
    state = cluster.state
    state.assign_job(np.arange(0, 4), 0)
    state.set_load(np.arange(0, 4), cpu_util=0.3, mem_frac=0.2, nic_frac=0.1)
    state.assign_job(np.arange(4, 10), 1)
    state.set_load(np.arange(4, 10), cpu_util=0.9, mem_frac=0.5, nic_frac=0.3)
    state.assign_job(np.arange(10, 14), 2)
    state.set_load(np.arange(10, 14), cpu_util=0.6, mem_frac=0.4, nic_frac=0.2)
    return cluster


def _drive_load(state, rng):
    busy = np.flatnonzero(state.job_id >= 0)
    u = np.clip(state.cpu_util[busy] + rng.normal(0, 0.1, len(busy)), 0.05, 1.0)
    state.set_load(
        busy,
        cpu_util=u,
        mem_frac=state.mem_frac[busy],
        nic_frac=state.nic_frac[busy],
    )


def _fencing_run(crash_at: int, total: int = 60) -> dict:
    """One scripted-crash run; returns the fencing ledger."""
    cluster = _make_fencing_world()
    model = PowerModel(cluster.spec)
    p0 = model.system_power(cluster.state)
    injector = _RetryInjector(16)
    journal = StateJournal(compact_every=8)
    actuator = DvfsActuator(cluster.state, injector)

    def make_manager() -> PowerManager:
        return PowerManager(
            cluster,
            NodeSets(cluster),
            SystemPowerMeter(model, cluster.state),
            ThresholdController.fixed(p_low=p0 * 0.93, p_high=p0 * 0.99),
            make_policy("mpc"),
            steady_green_cycles=3,
            fault_injector=injector,
            actuator=actuator,
            journal=journal,
        )

    primary = make_manager()
    ha = HaController(
        primary,
        make_manager,
        journal,
        HaConfig.warm(lease_timeout_cycles=2, crash_at_cycles=(crash_at,)),
    )
    rng = np.random.default_rng(7)
    inflight_at_crash = 0
    for k in range(1, total + 1):
        pending_before = actuator.pending_commands
        _drive_load(cluster.state, rng)
        ha.control_cycle(float(k))
        if k == crash_at:
            # The crash struck before the cycle acted: what was pending
            # after cycle k-1 is exactly the stranded in-flight set.
            inflight_at_crash = pending_before
    stats = ha.stats()
    return {
        "crash_at": crash_at,
        "inflight": inflight_at_crash,
        "fenced": stats.fenced_commands,
        "stale_pending": actuator.stale_pending_commands,
        "epoch_conflicts": stats.epoch_conflicts,
        "failovers": stats.failovers,
        "final_epoch": stats.final_epoch,
    }


def test_fencing_rejects_every_precrash_inflight_command(benchmark):
    crash_cycles = list(range(2, 42))

    def sweep():
        return [_fencing_run(c) for c in crash_cycles]

    ledgers = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_banner("Fencing: pre-crash in-flight commands across crash timing")
    table = Table(
        ["crash cycle", "in-flight", "fenced", "stale pending", "epoch conflicts"]
    )
    for led in ledgers:
        table.add_row(
            led["crash_at"],
            led["inflight"],
            led["fenced"],
            led["stale_pending"],
            led["epoch_conflicts"],
        )
    print(table.render())

    # The sweep must actually exercise the hazard: some crash timings
    # strand in-flight commands.
    assert sum(led["inflight"] for led in ledgers) > 0
    for led in ledgers:
        # Zero double-applies: no cycle is ever acted on by two epochs.
        assert led["epoch_conflicts"] == 0
        assert led["failovers"] == 1 and led["final_epoch"] == 1
        # Every pre-crash in-flight command was rejected at the fence
        # (and nothing else was): by the end of the run all stranded
        # commands have come due and bounced.
        assert led["stale_pending"] == 0
        assert led["fenced"] == led["inflight"], led


# ----------------------------------------------------------------------
# Part 2: crash cost at experiment scale, warm vs cold
# ----------------------------------------------------------------------
def _failover_grid():
    base = ExperimentConfig.quick(
        num_nodes=32,
        training_duration_s=120.0,
        run_duration_s=300.0,
        faults=FaultScenario.light(),
    )
    rows = []
    for crash_at in (30, 100, 200):
        for mode in ("warm", "cold"):
            ha = (
                HaConfig.warm(crash_at_cycles=(crash_at,))
                if mode == "warm"
                else HaConfig.restart_only(crash_at_cycles=(crash_at,))
            )
            result = run_failover(replace(base, ha=ha), "mpc")
            rows.append((crash_at, mode, result))
    return rows


def test_failover_cost_sweep(benchmark):
    rows = benchmark.pedantic(_failover_grid, rounds=1, iterations=1)
    print_banner("Failover: crash cost vs timing and deployment mode")
    table = Table(
        [
            "crash cycle",
            "mode",
            "downtime (s)",
            "failovers",
            "fenced",
            "epoch conflicts",
            "divergence (W)",
        ]
    )
    for crash_at, mode, res in rows:
        table.add_row(
            crash_at,
            mode,
            f"{res.downtime_seconds:.0f}",
            res.failovers,
            res.ha_stats.fenced_commands,
            res.ha_stats.epoch_conflicts,
            f"{res.divergence_w:.0f}",
        )
    print(table.render())

    for crash_at, mode, res in rows:
        expected = (
            res.crashed.config.ha.lease_timeout_cycles
            if mode == "warm"
            else res.crashed.config.ha.restart_cycles
        ) * res.crashed.config.control_period_s
        assert res.downtime_seconds == pytest.approx(expected)
        assert res.failovers == 1
        assert res.ha_stats.epoch_conflicts == 0
        # Warm standby strictly dominates cold restart on downtime.
        assert res.crashed.ha_stats.crashes == 1
    warm = {c: r for c, m, r in rows if m == "warm"}
    cold = {c: r for c, m, r in rows if m == "cold"}
    for c in warm:
        assert warm[c].downtime_seconds < cold[c].downtime_seconds
