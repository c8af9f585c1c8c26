"""Tests for fault scenarios wired through the experiment engine."""

import numpy as np
import pytest

from repro.experiments import run_experiment
from repro.faults import FaultScenario, FaultStats
from repro.ha import HaConfig
from repro.telemetry import IntegrityConfig

from tests.experiments.test_common import tiny_config


def test_none_scenario_bit_identical_to_default():
    """``FaultScenario.none()`` must not perturb a run at all."""
    plain = run_experiment(tiny_config(), "mpc")
    explicit = run_experiment(
        tiny_config(faults=FaultScenario.none()), "mpc"
    )
    np.testing.assert_array_equal(plain.power_w, explicit.power_w)
    np.testing.assert_array_equal(plain.times, explicit.times)
    assert plain.state_cycles == explicit.state_cycles
    assert plain.fault_stats is None and explicit.fault_stats is None
    assert plain.degraded_flags is None


def test_faulted_run_is_deterministic():
    cfg = tiny_config(faults=FaultScenario.light())
    a = run_experiment(cfg, "mpc")
    b = run_experiment(cfg, "mpc")
    np.testing.assert_array_equal(a.power_w, b.power_w)
    assert a.fault_stats == b.fault_stats


def test_faulted_run_populates_stats_and_flags():
    cfg = tiny_config(faults=FaultScenario.light())
    result = run_experiment(cfg, "mpc")
    assert isinstance(result.fault_stats, FaultStats)
    assert result.fault_stats.dropped_samples > 0
    assert result.degraded_flags is not None
    assert len(result.degraded_flags) == len(result.power_w)
    assert set(np.unique(result.degraded_flags)) <= {0.0, 1.0}


def test_heavy_scenario_exercises_degraded_sensing():
    cfg = tiny_config(faults=FaultScenario.heavy())
    result = run_experiment(cfg, "mpc")
    stats = result.fault_stats
    assert stats.meter_outage_cycles > 0
    assert stats.estimated_power_cycles > 0
    assert result.degraded_flags.sum() > 0


def test_baselines_accept_fault_scenarios():
    """Baselines take every optional subsystem a PowerManager takes."""
    from repro.core.baselines import BudgetPartitionManager, MimoFeedbackManager

    for factory in (MimoFeedbackManager, BudgetPartitionManager):
        faulted = run_experiment(
            tiny_config(faults=FaultScenario.light()), "mpc", manager_factory=factory
        )
        assert faulted.fault_stats is not None
        defended = run_experiment(
            tiny_config(integrity=IntegrityConfig()), "mpc", manager_factory=factory
        )
        assert defended.true_power_w is not None
        provisioned = run_experiment(
            tiny_config(attach_provision=True), "mpc", manager_factory=factory
        )
        assert provisioned.provision_stats is not None
        failed_over = run_experiment(
            tiny_config(ha=HaConfig.warm(crash_at_cycles=(100,))),
            "mpc",
            manager_factory=factory,
        )
        assert failed_over.ha_stats is not None
        assert failed_over.ha_stats.failovers == 1
        for result in (faulted, defended, provisioned, failed_over):
            assert np.all(np.isfinite(result.power_w))


def test_invalid_scenario_probability_rejected():
    from repro.errors import FaultInjectionError

    with pytest.raises(FaultInjectionError):
        FaultScenario(telemetry_dropout=1.2)
