#!/usr/bin/env python3
"""Watch the §III.A threshold learning machinery at work.

Builds the control stack by hand (no experiment harness) so each moving
part is visible: the cluster fills with jobs, a ThresholdController
learns P_peak during an unmanaged training window, and after the switch
to managed operation the thresholds keep ratcheting with the running
peak every t_p cycles.  Prints the threshold trajectory and an ASCII
power trace with the P_L/P_H bands.

Run:  python examples/threshold_learning.py
"""

import numpy as np

from repro.analysis import ascii_chart
from repro.cluster import Cluster
from repro.core import NodeSets, PowerManager, ThresholdController
from repro.core.policies import make_policy
from repro.power import PowerModel, SystemPowerMeter
from repro.scheduler import BatchScheduler, KeepQueueFilledFeeder
from repro.sim import RandomSource
from repro.units import fmt_power
from repro.workload import JobExecutor, RandomJobGenerator

TRAINING_S = 600
RUN_S = 1200
T_P = 150  # threshold adjustment period, cycles


def main() -> None:
    rng = RandomSource(seed=5)
    cluster = Cluster.tianhe_1a()
    model = PowerModel(cluster.spec)
    generator = RandomJobGenerator(rng.stream("gen"), runtime_scale=0.02)
    executor = JobExecutor(cluster.state, rng.stream("exec"))
    scheduler = BatchScheduler(cluster, executor, KeepQueueFilledFeeder(generator))

    print(f"[training] {TRAINING_S}s unmanaged, recording the peak...")
    peak = 0.0
    for t in range(1, TRAINING_S + 1):
        scheduler.tick(float(t), 1.0)
        peak = max(peak, model.system_power(cluster.state))
    print(f"  P_peak = {fmt_power(peak)}")

    thresholds = ThresholdController.from_training(peak, adjust_every_cycles=T_P)
    print(f"  learned P_H = {fmt_power(thresholds.p_high)} (93% of peak)")
    print(f"  learned P_L = {fmt_power(thresholds.p_low)} (84% of peak)")

    manager = PowerManager(
        cluster,
        NodeSets(cluster),
        SystemPowerMeter(model, cluster.state),
        thresholds,
        make_policy("mpc"),
    )

    print(f"\n[managed] {RUN_S}s under MPC; thresholds re-checked every "
          f"{T_P} cycles...")
    adjustments = []
    reports = []
    for t in range(TRAINING_S + 1, TRAINING_S + RUN_S + 1):
        scheduler.tick(float(t), 1.0)
        before = thresholds.adjustments
        reports.append(manager.control_cycle(float(t)))
        if thresholds.adjustments != before:
            adjustments.append((t, thresholds.p_low, thresholds.p_high))

    if adjustments:
        print("  threshold adjustments (running peak ratcheted up):")
        for t, p_low, p_high in adjustments:
            print(f"    t={t:5d}s  P_L={fmt_power(p_low)}  P_H={fmt_power(p_high)}")
    else:
        print("  no adjustments — the training peak was never exceeded.")

    times = np.array([r.time for r in reports])
    power = np.array([r.power_w for r in reports])
    p_low_series = np.array([r.p_low for r in reports])
    p_high_series = np.array([r.p_high for r in reports])
    stride = max(1, len(times) // 120)
    print()
    print(
        ascii_chart(
            times[::stride],
            {
                "power": power[::stride],
                "P_L": p_low_series[::stride],
                "P_H": p_high_series[::stride],
            },
            title="managed power trajectory vs the learned bands (watts)",
            height=14,
            width=72,
        )
    )
    from repro.core import PowerState

    print(
        f"\ncycles: green {manager.state_count(PowerState.GREEN)}, "
        f"yellow {manager.state_count(PowerState.YELLOW)}, "
        f"red {manager.state_count(PowerState.RED)} "
        f"(the paper's capped system never went red)"
    )


if __name__ == "__main__":
    main()
