"""Robustness and fidelity checks across the sensing chain."""

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.faults import FaultScenario
from repro.metrics import compare_runs


def _config(**overrides):
    defaults = dict(
        seed=13,
        runtime_scale=0.02,
        training_duration_s=240.0,
        run_duration_s=400.0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_estimator_matches_ground_truth_during_run():
    """The manager's per-node estimates, summed over all nodes, equal
    the meter's noise-free reading: Formula (1) is both ground truth
    and estimation basis, so the only possible divergence is a wiring
    bug (stale snapshots, wrong coefficients)."""
    from repro.cluster import Cluster
    from repro.core import NodeSets, PowerManager, ThresholdController
    from repro.core.policies import make_policy
    from repro.power import SystemPowerMeter, make_power_model
    from repro.scheduler import BatchScheduler, KeepQueueFilledFeeder
    from repro.sim import RandomSource
    from repro.workload import JobExecutor, RandomJobGenerator
    from repro.power import NodePowerEstimator

    rng = RandomSource(seed=21)
    cluster = Cluster.tianhe_1a(num_nodes=32)
    model = make_power_model(cluster)
    generator = RandomJobGenerator(
        rng.stream("gen"), runtime_scale=0.01, nprocs_choices=(8, 32, 64)
    )
    executor = JobExecutor(cluster.state, rng.stream("exec"))
    scheduler = BatchScheduler(cluster, executor, KeepQueueFilledFeeder(generator))
    meter = SystemPowerMeter(model, cluster.state)
    estimator = NodePowerEstimator(model)
    manager = PowerManager(
        cluster,
        NodeSets(cluster),
        meter,
        ThresholdController.from_training(cluster.theoretical_max_power()),
        make_policy("mpc"),
    )
    for t in range(1, 101):
        scheduler.tick(float(t), 1.0)
        report = manager.control_cycle(float(t))
        # The snapshot and the meter reading describe the same instant
        # (before this cycle's actuation), so the estimates must sum to
        # exactly the metered power.
        snap = manager.collector.current
        estimated = estimator.estimate_nodes(
            snap.level, snap.cpu_util, snap.mem_frac, snap.nic_frac,
            node_ids=snap.node_ids,
        ).sum()
        assert estimated == pytest.approx(report.power_w, rel=1e-9)


def test_capping_robust_to_meter_noise():
    """With 2% gaussian meter noise the architecture still caps: the
    peak and overspend drop relative to the noisy-uncapped baseline.
    (The paper assumes an accurate meter; this checks graceful
    degradation rather than a paper claim.)"""
    noisy = _config(faults=FaultScenario(meter_noise_fraction=0.02))
    baseline = run_experiment(noisy, None)
    capped = run_experiment(noisy, "mpc")
    c = compare_runs(capped.metrics, baseline.metrics)
    assert c.p_max_ratio < 1.0
    assert c.overspend_reduction > 0.3
    assert c.performance > 0.85


def test_metrics_insensitive_to_provision_label():
    """Re-scoring a run's own power trace against its provision gives
    back the recorded overspend; a stricter threshold scores more."""
    from repro.metrics.power import accumulated_overspend

    result = run_experiment(_config(), None)
    times, power = result.times, result.power_w
    original = accumulated_overspend(times, power, result.provision_w)
    assert original == pytest.approx(result.metrics.overspend)
    stricter = accumulated_overspend(times, power, result.provision_w * 0.95)
    assert stricter > original
