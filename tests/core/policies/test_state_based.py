"""Unit tests for MPC, LPC, BFP (§IV.A).

Fixture layout (``busy_cluster``): job 0 on nodes 0–3 (light load),
job 1 on nodes 4–9 (heavy), job 2 on nodes 10–13 (medium); 14–15 idle.
Power ranking: job 1 > job 2 > job 0.
"""

import numpy as np

from repro.core.policies import make_policy


def test_mpc_targets_heaviest_job(ctx_builder):
    ctx = ctx_builder.snap()
    selection = make_policy("mpc").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(4, 10))


def test_lpc_targets_lightest_job(ctx_builder):
    ctx = ctx_builder.snap()
    selection = make_policy("lpc").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(0, 4))


def test_idle_nodes_never_selected(ctx_builder):
    ctx = ctx_builder.snap()
    for name in ("mpc", "lpc", "bfp"):
        selection = make_policy(name).select(ctx)
        assert 14 not in selection and 15 not in selection


def test_mpc_skips_job_at_lowest_level(ctx_builder):
    """If the heaviest job's nodes are all at level 0 it cannot be
    degraded — MPC falls through to the next job."""
    ctx_builder.cluster.state.set_levels(np.arange(4, 10), 0)
    ctx = ctx_builder.snap()
    selection = make_policy("mpc").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(10, 14))


def test_mpc_partial_degradable_set(ctx_builder):
    """Only the degradable subset of the top job's nodes is returned."""
    ctx_builder.cluster.state.set_levels(np.array([4, 5]), 0)
    ctx = ctx_builder.snap()
    selection = make_policy("mpc").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(6, 10))


def test_empty_when_nothing_degradable(ctx_builder):
    ctx_builder.cluster.state.set_levels(np.arange(16), 0)
    ctx = ctx_builder.snap()
    for name in ("mpc", "lpc", "bfp"):
        assert len(make_policy(name).select(ctx)) == 0


def test_empty_when_no_jobs(small_cluster):
    from tests.core.conftest import ContextBuilder

    builder = ContextBuilder(small_cluster)
    ctx = builder.snap()
    for name in ("mpc", "lpc", "bfp"):
        assert len(make_policy(name).select(ctx)) == 0


def test_bfp_picks_smallest_sufficient_job(ctx_builder):
    """With a small deficit, every job's savings cover it; BFP picks the
    one whose savings are *just* above — the lightest job here."""
    ctx = ctx_builder.snap(system_power=4000.1, p_low=4000.0)
    selection = make_policy("bfp").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(0, 4))


def test_bfp_falls_back_to_largest_savings(ctx_builder):
    """With a deficit no single job can cover, BFP picks the job with
    the greatest savings (closest from below) — the heavy job."""
    ctx = ctx_builder.snap(system_power=9.9e5, p_low=1000.0)
    selection = make_policy("bfp").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(4, 10))


def test_bfp_intermediate_deficit(ctx_builder):
    """Deficit sized between job 0's and job 2's savings: job 2 is the
    best fit among sufficient jobs."""
    ctx0 = ctx_builder.snap()
    savings0 = ctx0.savings_of_job(0)
    savings2 = ctx0.savings_of_job(2)
    assert savings0 < savings2
    deficit = (savings0 + savings2) / 2
    ctx = ctx_builder.snap(system_power=4000.0 + deficit, p_low=4000.0)
    selection = make_policy("bfp").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(10, 14))


def test_selection_deterministic(ctx_builder):
    ctx = ctx_builder.snap()
    a = make_policy("mpc").select(ctx)
    b = make_policy("mpc").select(ctx)
    np.testing.assert_array_equal(a, b)
