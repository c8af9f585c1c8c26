"""Unit tests for the experiment configuration and single-run engine."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, run_experiment


def tiny_config(**overrides):
    defaults = dict(
        seed=5,
        runtime_scale=0.02,
        training_duration_s=180.0,
        run_duration_s=240.0,
        adjust_every_cycles=120,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(num_nodes=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(control_period_s=0.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(runtime_scale=-1.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(training_duration_s=0.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(steady_green_cycles=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(provision_fraction=0.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(modulation_std=-0.1)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(modulation_tau_s=0.0)


def test_effective_modulation_tau():
    assert ExperimentConfig(modulation_tau_s=77.0).effective_modulation_tau_s == 77.0
    derived = ExperimentConfig(runtime_scale=0.25).effective_modulation_tau_s
    assert derived == pytest.approx(100.0)
    assert ExperimentConfig(runtime_scale=0.001).effective_modulation_tau_s == 20.0
    assert ExperimentConfig(runtime_scale=10.0).effective_modulation_tau_s == 400.0


def test_presets_construct():
    assert ExperimentConfig.quick().run_duration_s == 900.0
    assert ExperimentConfig.calibrated().runtime_scale == 0.25
    assert ExperimentConfig.paper().training_duration_s == 24 * 3600.0
    assert ExperimentConfig.quick(seed=9).seed == 9


def test_uncapped_run_shape():
    result = run_experiment(tiny_config(), None)
    assert result.label == "uncapped"
    assert len(result.times) == len(result.power_w) == 240
    assert result.times[0] == pytest.approx(181.0)
    assert result.times[-1] == pytest.approx(420.0)
    assert result.training_peak_w > 0
    assert result.provision_w == pytest.approx(0.82 * result.training_peak_w)
    assert result.metrics.finished_jobs == len(result.finished_jobs) > 0
    assert result.state_cycles == {}
    assert result.commands_sent == 0


def test_uncapped_jobs_run_at_nominal_speed():
    result = run_experiment(tiny_config(), None)
    for job in result.finished_jobs:
        assert job.actual_runtime_s == pytest.approx(job.nominal_runtime_s)
    assert result.metrics.performance == pytest.approx(1.0)


def test_capped_run_reports_manager_state():
    result = run_experiment(tiny_config(), "mpc")
    assert result.label == "mpc"
    total_cycles = sum(result.state_cycles.values())
    assert total_cycles == 240
    assert result.management_cpu > 0
    assert result.p_low_w < result.p_high_w


def test_policy_instance_accepted():
    from repro.core.policies import make_policy

    result = run_experiment(tiny_config(), make_policy("lpc"), label="mylpc")
    assert result.label == "mylpc"


def test_same_seed_reproducible():
    a = run_experiment(tiny_config(), "mpc")
    b = run_experiment(tiny_config(), "mpc")
    np.testing.assert_array_equal(a.power_w, b.power_w)
    assert a.metrics.performance == b.metrics.performance
    assert a.metrics.cplj == b.metrics.cplj


def test_different_seeds_differ():
    a = run_experiment(tiny_config(), None)
    b = run_experiment(tiny_config(seed=6), None)
    assert not np.array_equal(a.power_w, b.power_w)


def test_training_identical_across_policies():
    """The training peak (and thus thresholds/provision) must be the
    same no matter which policy runs afterwards."""
    uncapped = run_experiment(tiny_config(), None)
    capped = run_experiment(tiny_config(), "hri")
    assert uncapped.training_peak_w == pytest.approx(capped.training_peak_w)
    assert uncapped.provision_w == pytest.approx(capped.provision_w)


def test_candidate_size_respected():
    result = run_experiment(tiny_config(candidate_size=8), "mpc")
    assert result.management_cpu < run_experiment(
        tiny_config(), "mpc"
    ).management_cpu


def test_privileged_nodes_config():
    result = run_experiment(tiny_config(privileged_nodes=(0, 1)), "mpc")
    assert result.metrics.finished_jobs > 0


@pytest.mark.parametrize("bad", [(-1,), (99,)])
def test_privileged_nodes_out_of_range_rejected(bad):
    with pytest.raises(ConfigurationError):
        run_experiment(tiny_config(num_nodes=32, privileged_nodes=bad), None)


def test_random_policy_runs():
    result = run_experiment(tiny_config(), "random")
    assert result.label == "random"


def test_thermal_tracking_fields():
    cold = run_experiment(tiny_config(), None)
    assert cold.peak_temperature_c is None and cold.expected_failures is None
    hot = run_experiment(tiny_config(track_thermal=True), None)
    assert hot.peak_temperature_c > 40.0
    assert hot.expected_failures > 0


def test_capping_reduces_thermal_impact():
    base = run_experiment(tiny_config(track_thermal=True), None)
    capped = run_experiment(tiny_config(track_thermal=True), "mpc")
    # Aggregate-power capping only weakly bounds the hottest single node;
    # the integrated failure expectation is the guaranteed direction.
    assert capped.peak_temperature_c <= base.peak_temperature_c + 2.0
    assert capped.expected_failures < base.expected_failures


def test_manager_factory_baselines_run():
    from repro.core.baselines import BudgetPartitionManager, MimoFeedbackManager

    mimo = run_experiment(
        tiny_config(), "mpc", label="mimo", manager_factory=MimoFeedbackManager
    )
    assert mimo.label == "mimo"
    assert mimo.commands_sent > 0
    budget = run_experiment(
        tiny_config(), "mpc", label="budget", manager_factory=BudgetPartitionManager
    )
    assert budget.metrics.p_max_w < run_experiment(tiny_config(), None).metrics.p_max_w
