"""Property tests: safety invariants under arbitrary fault schedules.

Drive a full :class:`PowerManager` with a real :class:`FaultInjector`
configured by hypothesis-drawn fault rates, while the workload's load
levels wander randomly.  Whatever the schedule of dropped samples, meter
outages, lost/delayed commands and node crashes:

* a privileged node's DVFS level never changes;
* in any cycle where a node's actual level *rises*, that cycle ran on a
  real meter reading and the node's telemetry was fresh in that cycle's
  snapshot (the never-upgrade-on-stale guarantee);
* every level stays within the platform range.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import NodeSets, PowerManager, ThresholdController
from repro.core.policies import make_policy
from repro.faults import FaultInjector, FaultScenario, degraded
from repro.power import PowerModel, SystemPowerMeter
from repro.sim import RandomSource

#: The ladder's stale-age bound, patched in for these tests.
MAX_STALE_AGE_S = 2.5
PRIVILEGED = np.array([0, 1])

scenarios = st.builds(
    FaultScenario,
    telemetry_dropout=st.floats(0.0, 0.6),
    meter_outage_rate=st.floats(0.0, 0.3),
    meter_recovery_rate=st.floats(0.1, 0.9),
    meter_noise_fraction=st.floats(0.0, 0.1),
    command_loss=st.floats(0.0, 0.4),
    command_delay=st.floats(0.0, 0.4),
    command_delay_cycles=st.integers(min_value=1, max_value=4),
    node_crash_rate=st.floats(0.0, 0.05),
    node_recovery_rate=st.floats(0.05, 0.5),
)


def _setup(seed: int, scenario: FaultScenario):
    rng = np.random.default_rng(seed)
    cluster = Cluster.tianhe_1a(num_nodes=12)
    state = cluster.state
    cluster.set_privileged_nodes(PRIVILEGED)
    state.assign_job(np.arange(2, 7), 0)
    state.set_load(np.arange(2, 7), 0.8, 0.5, 0.3)
    state.assign_job(np.arange(7, 11), 1)
    state.set_load(np.arange(7, 11), 0.5, 0.4, 0.2)

    sets = NodeSets(cluster)
    model = PowerModel(cluster.spec)
    meter = SystemPowerMeter(model, state)
    injector = FaultInjector(scenario, RandomSource(seed=seed), num_nodes=12)
    p0 = model.system_power(state)
    manager = PowerManager(
        cluster,
        sets,
        meter,
        # Tight band around the operating point so the wandering load
        # crosses both thresholds and all three states get exercised.
        ThresholdController.fixed(p_low=p0 * 0.97, p_high=p0 * 1.03),
        make_policy("mpc"),
        steady_green_cycles=2,
        fault_injector=injector,
    )
    return cluster, manager, rng


@mock.patch.object(degraded, "MAX_STALE_AGE_S", MAX_STALE_AGE_S)
@given(st.integers(min_value=0, max_value=10_000), scenarios)
@settings(max_examples=30, deadline=None)
def test_safety_invariants_under_any_fault_schedule(seed, scenario):
    cluster, manager, rng = _setup(seed, scenario)
    state = cluster.state
    top = cluster.spec.top_level
    priv_levels = state.level[PRIVILEGED].copy()

    for t in range(40):
        # Random walk of the job loads to traverse green/yellow/red.
        for ids in (np.arange(2, 7), np.arange(7, 11)):
            state.set_load(
                ids,
                float(rng.uniform(0.1, 1.0)),
                float(rng.uniform(0.1, 0.8)),
                float(rng.uniform(0.0, 0.5)),
            )
        before = state.level.copy()
        report = manager.control_cycle(float(t))
        snapshot = manager.collector.current

        # Privileged nodes are untouchable, faults or not.
        np.testing.assert_array_equal(state.level[PRIVILEGED], priv_levels)
        # Levels stay on the platform's ladder.
        assert state.level.min() >= 0 and state.level.max() <= top

        raised = np.flatnonzero(state.level > before)
        if raised.size:
            # Upgrades only ever happen on a real meter reading...
            assert report.metered
            # ...and only for nodes whose telemetry was fresh in the
            # snapshot this very cycle used.
            stale = snapshot.stale_mask(MAX_STALE_AGE_S)
            for node in raised:
                assert not stale[snapshot.index_of(int(node))]


@mock.patch.object(degraded, "MAX_STALE_AGE_S", MAX_STALE_AGE_S)
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_total_blackout_never_raises_a_level(seed):
    """With every sample dropped, no node may ever be upgraded."""
    scenario = FaultScenario(telemetry_dropout=1.0)
    cluster, manager, rng = _setup(seed, scenario)
    state = cluster.state
    baseline = state.level.copy()
    for t in range(25):
        manager.control_cycle(float(t))
        assert np.all(state.level <= baseline)
    # The blackout ladder eventually forces red.
    assert manager.fault_report().forced_red_cycles > 0
