"""Tests for the per-figure harnesses (small configurations)."""

import numpy as np
import pytest

from repro.analysis import format_fig6_table, format_fig7_table
from repro.errors import ConfigurationError
from repro.experiments import run_fig5, run_fig6, run_fig7
from repro.experiments.ablations import policy_zoo, sweep_steady_green
from repro.experiments.fig5_scalability import measure_collection_cycle_s

from tests.experiments.test_common import tiny_config


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------
def test_fig5_modelled_curve_monotone_and_superlinear():
    result = run_fig5(sizes=(0, 8, 32, 128), measure=False)
    assert np.all(np.diff(result.modelled_cpu) > 0)
    assert result.nonlinearity() > 1.5
    assert result.measured_cycle_s is None


def test_fig5_measured_curve():
    result = run_fig5(sizes=(0, 16, 64), measure=True, num_nodes=64)
    assert result.measured_cycle_s is not None
    assert result.measured_cycle_s[0] == 0.0
    assert np.all(result.measured_cycle_s[1:] > 0)


def test_fig5_size_bounds_checked():
    with pytest.raises(ConfigurationError):
        run_fig5(sizes=(0, 500), measure=False)


def test_fig5_nonlinearity_requires_points():
    result = run_fig5(sizes=(0, 8), measure=False)
    with pytest.raises(ConfigurationError):
        result.nonlinearity()


def test_measure_collection_cycle_zero_size():
    assert measure_collection_cycle_s(0) == 0.0


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------
def test_fig6_sweep_structure():
    result = run_fig6(tiny_config(), sizes=(0, 16, 128), policies=("mpc",))
    sizes, pmax, overspend = result.series("mpc")
    np.testing.assert_array_equal(sizes, [0, 16, 128])
    assert pmax[0] == 1.0 and overspend[0] == 1.0
    # Managing the whole machine beats managing nothing.
    assert overspend[-1] < 1.0
    assert pmax[-1] < 1.0
    text = format_fig6_table(result)
    assert "|A_candidate|" in text and "mpc" in text


def test_fig6_adds_size_zero_if_missing():
    result = run_fig6(tiny_config(), sizes=(16,), policies=("mpc",))
    sizes, _, _ = result.series("mpc")
    assert sizes[0] == 0


def test_fig6_unknown_policy_series():
    result = run_fig6(tiny_config(), sizes=(0, 16), policies=("mpc",))
    with pytest.raises(ConfigurationError):
        result.series("hri")


def test_fig6_knee_size():
    result = run_fig6(tiny_config(), sizes=(0, 16, 64, 128), policies=("mpc",))
    knee = result.knee_size("mpc", tolerance=1.0)  # huge tolerance: first size
    assert knee == 0
    tight = result.knee_size("mpc", tolerance=0.0)
    assert tight in (0, 16, 64, 128)


# ----------------------------------------------------------------------
# Figure 7
# ----------------------------------------------------------------------
def test_fig7_outcomes():
    result = run_fig7(tiny_config(), policies=("mpc", "hri"))
    assert {o.policy for o in result.outcomes} == {"mpc", "hri"}
    mpc = result.outcome("mpc")
    assert 0.0 < mpc.performance <= 1.0
    assert mpc.performance_loss == pytest.approx(1.0 - mpc.performance)
    assert 0.0 < mpc.p_max_ratio <= 1.05
    assert mpc.commands_sent > 0
    gap = result.cplj_gap("mpc", "hri")
    assert -1.0 <= gap <= 1.0
    text = format_fig7_table(result)
    assert "uncapped" in text and "mpc" in text and "hri" in text


def test_fig7_unknown_outcome():
    result = run_fig7(tiny_config(), policies=("mpc",))
    with pytest.raises(ConfigurationError):
        result.outcome("bfp")


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def test_sweep_steady_green_rows():
    rows = sweep_steady_green(tiny_config(), values=(2, 20), policy="mpc")
    assert [r.label for r in rows] == ["T_g=2", "T_g=20"]
    for row in rows:
        assert 0.0 < row.performance <= 1.0


def test_sweep_steady_green_empty_rejected():
    with pytest.raises(ConfigurationError):
        sweep_steady_green(tiny_config(), values=())


def test_policy_zoo_small():
    result = policy_zoo(tiny_config(), policies=("mpc", "lpc"))
    assert {o.policy for o in result.outcomes} == {"mpc", "lpc"}
