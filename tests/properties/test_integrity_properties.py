"""Property tests for the telemetry-integrity defense.

Two guarantees pin the design:

* **No-op on clean telemetry** — with every sensor honest, a defended
  run (validator + meter monitor armed) is *bit-identical* to the
  undefended seed run: the pipeline observes, but touches nothing.
* **Never-underestimate under corruption** — once every corrupted node
  is quarantined, the power the controller acts on is at least the true
  cluster power, whatever the (noiseless-but-lying) meter reports.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import NodeSets, PowerManager, ThresholdController
from repro.core.policies import make_policy
from repro.experiments import ExperimentConfig, run_experiment
from repro.faults import CorruptionScenario, FaultInjector, FaultScenario
from repro.power import PowerModel, SystemPowerMeter
from repro.sim import RandomSource
from repro.telemetry import IntegrityConfig

NUM_NODES = 12


def _setup(seed: int, corruption: CorruptionScenario):
    rng = np.random.default_rng(seed)
    cluster = Cluster.tianhe_1a(num_nodes=NUM_NODES)
    state = cluster.state
    state.assign_job(np.arange(0, 6), 0)
    state.set_load(np.arange(0, 6), 0.8, 0.5, 0.3)
    state.assign_job(np.arange(6, 10), 1)
    state.set_load(np.arange(6, 10), 0.5, 0.4, 0.2)

    sets = NodeSets(cluster)
    model = PowerModel(cluster.spec)
    meter = SystemPowerMeter(model, state)
    injector = FaultInjector(
        FaultScenario.none(),
        RandomSource(seed=seed),
        num_nodes=NUM_NODES,
        corruption=corruption,
    )
    p0 = model.system_power(state)
    manager = PowerManager(
        cluster,
        sets,
        meter,
        ThresholdController.fixed(p_low=p0 * 0.97, p_high=p0 * 1.03),
        make_policy("mpc"),
        steady_green_cycles=2,
        fault_injector=injector,
        integrity=IntegrityConfig(),
    )
    return cluster, model, manager, rng


def _wander(state, rng):
    for ids in (np.arange(0, 6), np.arange(6, 10)):
        state.set_load(
            ids,
            float(rng.uniform(0.1, 1.0)),
            float(rng.uniform(0.1, 0.8)),
            float(rng.uniform(0.0, 0.5)),
        )


# ----------------------------------------------------------------------
# Never-underestimate under corruption
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.4, max_value=0.9),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_quarantined_estimate_never_underestimates(seed, meter_gain, stuck):
    """With every sensor garbage and the meter lying low, the acted-on
    power must cover the true cluster power once quarantine engages."""
    corruption = CorruptionScenario(
        garbage_fraction=1.0,
        garbage_rate=1.0,
        meter_gain=meter_gain,
        meter_stuck=stuck,
    )
    cluster, model, manager, rng = _setup(seed, corruption)
    state = cluster.state
    saw_full_quarantine = False
    for t in range(60):
        _wander(state, rng)
        truth = model.system_power(state)
        report = manager.control_cycle(float(t))
        validator = manager.collector.validator
        assert validator is not None
        if report.metered and bool(validator.quarantined.all()):
            saw_full_quarantine = True
            assert report.power_w >= truth - 1e-6, (
                f"cycle {t}: acted on {report.power_w:.1f} W with "
                f"{truth:.1f} W truly flowing"
            )
    assert saw_full_quarantine, "corruption never drove full quarantine"


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_quarantine_engages_and_releases_after_corruption_clears(seed):
    """Garbage sensors land in quarantine; onset gating keeps the run
    clean before the corruption switches on."""
    corruption = CorruptionScenario(
        garbage_fraction=0.5, garbage_rate=1.0, onset_cycle=10
    )
    cluster, model, manager, rng = _setup(seed, corruption)
    state = cluster.state
    for t in range(10):
        _wander(state, rng)
        manager.control_cycle(float(t))
    validator = manager.collector.validator
    assert validator is not None
    assert validator.quarantined_nodes == 0  # honest before onset
    assert validator.rejected_samples == 0
    for t in range(10, 40):
        _wander(state, rng)
        manager.control_cycle(float(t))
    assert validator.quarantined_nodes > 0
    assert validator.rejected_samples > 0


# ----------------------------------------------------------------------
# Bit-identical no-op on clean telemetry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [2012, 7])
def test_defended_run_is_bit_identical_on_clean_telemetry(seed):
    config = ExperimentConfig.quick(num_nodes=32, seed=seed)
    baseline = run_experiment(config, "bfp")
    defended = run_experiment(
        ExperimentConfig.quick(
            num_nodes=32, seed=seed, integrity=IntegrityConfig()
        ),
        "bfp",
    )
    np.testing.assert_array_equal(baseline.times, defended.times)
    np.testing.assert_array_equal(baseline.power_w, defended.power_w)
    assert baseline.metrics.overspend == defended.metrics.overspend
    assert baseline.p_low_w == defended.p_low_w
    assert baseline.p_high_w == defended.p_high_w
    assert len(baseline.finished_jobs) == len(defended.finished_jobs)
