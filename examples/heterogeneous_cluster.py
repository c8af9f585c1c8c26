#!/usr/bin/env python3
"""Power capping on a heterogeneous cluster.

The paper notes its capping algorithm "is applicable to both
heterogeneous and homogeneous systems as far as the power states of a
node are discrete" (§III.B, property 1).  This example demonstrates it:
a machine mixing 96 Tianhe-1A blades with 32 lower-power blades runs the
same MPC-driven control loop, and the policies' power rankings naturally
account for the types (the same DVFS level means different watts on
different blades).

The stack is wired by hand — cluster, scheduler, manager — to show the
heterogeneous API end to end.

Run:  python examples/heterogeneous_cluster.py
"""

import numpy as np

from repro.cluster import Cluster, DvfsTable, MemorySpec, NicSpec, NodeSpec
from repro.cluster.cpu import ProcessorSpec
from repro.core import NodeSets, PowerManager, PowerState, ThresholdController
from repro.core.policies import make_policy
from repro.power import SystemPowerMeter, make_power_model
from repro.scheduler import BatchScheduler, KeepQueueFilledFeeder
from repro.sim import RandomSource
from repro.units import fmt_power, gib
from repro.workload import JobExecutor, RandomJobGenerator


def low_power_blade() -> NodeSpec:
    """A reduced-TDP blade: same 10-step ladder depth and 12 cores as
    the Tianhe blade (the whole-node allocator requires it), about 60%
    of the power."""
    cpu = ProcessorSpec(
        name="low-power SKU",
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


def main() -> None:
    cluster = Cluster.heterogeneous(
        [(NodeSpec.tianhe_1a(), 96), (low_power_blade(), 32)],
        name="mixed-fleet",
    )
    print(f"cluster: {cluster.num_nodes} nodes "
          f"(96 Tianhe-1A + 32 low-power), "
          f"P_thy = {fmt_power(cluster.theoretical_max_power())}")

    rng = RandomSource(seed=11)
    model = make_power_model(cluster)
    generator = RandomJobGenerator(rng.stream("gen"), runtime_scale=0.02)
    executor = JobExecutor(cluster.state, rng.stream("exec"))
    scheduler = BatchScheduler(cluster, executor, KeepQueueFilledFeeder(generator))

    print("\n[training] 600 s unmanaged...")
    peak = 0.0
    for t in range(1, 601):
        scheduler.tick(float(t), 1.0)
        peak = max(peak, model.system_power(cluster.state))
    print(f"  peak {fmt_power(peak)}")

    manager = PowerManager(
        cluster,
        NodeSets(cluster),
        SystemPowerMeter(model, cluster.state),
        ThresholdController.from_training(peak),
        make_policy("mpc"),
    )
    print("[managed] 900 s under MPC...")
    power = []
    for t in range(601, 1501):
        scheduler.tick(float(t), 1.0)
        power.append(manager.control_cycle(float(t)).power_w)

    print(f"\ncapped P_max: {fmt_power(max(power))} "
          f"(vs training peak {fmt_power(peak)})")
    print(f"cycles: green {manager.state_count(PowerState.GREEN)}, "
          f"yellow {manager.state_count(PowerState.YELLOW)}, "
          f"red {manager.state_count(PowerState.RED)}")

    # Which node type absorbed the throttling?  MPC ranks jobs by watts,
    # and the hot blades host the power-heavy jobs, so most degradations
    # land there — the type-awareness falls out of Formula (1).
    levels = cluster.state.level
    types = cluster.state.spec_index
    top = cluster.spec.top_level
    for group, label in ((0, "Tianhe-1A"), (1, "low-power")):
        mask = types == group
        degraded = int(np.sum(levels[mask] < top))
        print(f"  {label:10s}: {degraded}/{int(mask.sum())} nodes currently "
              f"below the top level")


if __name__ == "__main__":
    main()
