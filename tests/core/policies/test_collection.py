"""Unit tests for MPC-C (Algorithm 2) and LPC-C."""

import numpy as np

from repro.core.policies import make_policy


def test_mpcc_small_deficit_one_job(ctx_builder):
    """A deficit the heaviest job covers alone ⇒ only its nodes."""
    ctx = ctx_builder.snap(system_power=4000.1, p_low=4000.0)
    selection = make_policy("mpc-c").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(4, 10))


def test_mpcc_accumulates_until_deficit_covered(ctx_builder):
    """Deficit bigger than job 1's savings ⇒ job 2 joins the collection."""
    probe = ctx_builder.snap()
    s1 = probe.savings_of_job(1)
    s2 = probe.savings_of_job(2)
    deficit = s1 + 0.5 * s2  # job 1 alone insufficient; jobs 1+2 suffice
    ctx = ctx_builder.snap(system_power=4000.0 + deficit, p_low=4000.0)
    selection = make_policy("mpc-c").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(4, 14))


def test_mpcc_collects_everything_for_huge_deficit(ctx_builder):
    ctx = ctx_builder.snap(system_power=9e9, p_low=4000.0)
    selection = make_policy("mpc-c").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(0, 14))


def test_lpcc_accumulates_from_light_end(ctx_builder):
    probe = ctx_builder.snap()
    s0 = probe.savings_of_job(0)
    deficit = s0 * 1.5  # job 0 insufficient alone ⇒ job 2 joins
    ctx = ctx_builder.snap(system_power=4000.0 + deficit, p_low=4000.0)
    selection = make_policy("lpc-c").select(ctx)
    expected = np.concatenate([np.arange(0, 4), np.arange(10, 14)])
    np.testing.assert_array_equal(selection, expected)


def test_lpcc_small_deficit_lightest_only(ctx_builder):
    ctx = ctx_builder.snap(system_power=4000.1, p_low=4000.0)
    selection = make_policy("lpc-c").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(0, 4))


def test_collection_skips_undegradable_jobs(ctx_builder):
    ctx_builder.cluster.state.set_levels(np.arange(4, 10), 0)  # job 1 at floor
    ctx = ctx_builder.snap(system_power=9e9, p_low=4000.0)
    selection = make_policy("mpc-c").select(ctx)
    expected = np.concatenate([np.arange(0, 4), np.arange(10, 14)])
    np.testing.assert_array_equal(selection, expected)


def test_collection_empty_without_jobs(small_cluster):
    from tests.core.conftest import ContextBuilder

    ctx = ContextBuilder(small_cluster).snap()
    assert len(make_policy("mpc-c").select(ctx)) == 0
    assert len(make_policy("lpc-c").select(ctx)) == 0


def test_collection_zero_deficit_still_selects_one_job(ctx_builder):
    """In the yellow state the deficit may be 0⁺ (P barely above P_L);
    Algorithm 2's loop body runs once before the Saved >= P−P_L check,
    so one job is still throttled."""
    ctx = ctx_builder.snap(system_power=3999.0, p_low=4000.0)  # deficit 0
    selection = make_policy("mpc-c").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(4, 10))


def test_selection_sorted_and_unique(ctx_builder):
    ctx = ctx_builder.snap(system_power=9e9, p_low=4000.0)
    for name in ("mpc-c", "lpc-c"):
        sel = make_policy(name).select(ctx)
        assert np.all(np.diff(sel) > 0)
