"""Unit tests for HRI and HRI-C (§IV.B)."""

import numpy as np

from repro.core.policies import make_policy


def test_hri_empty_on_first_cycle(ctx_builder):
    """No previous snapshot ⇒ no rates ⇒ empty selection."""
    ctx = ctx_builder.snap()
    assert ctx.previous is None
    assert len(make_policy("hri").select(ctx)) == 0


def test_hri_targets_fastest_riser(ctx_builder):
    state = ctx_builder.cluster.state
    ctx_builder.snap()  # snapshot t-1
    # Job 0 surges from 0.3 to 0.9 utilisation; others unchanged.
    state.set_load(np.arange(0, 4), 0.9, 0.2, 0.1)
    ctx = ctx_builder.snap()
    selection = make_policy("hri").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(0, 4))


def test_hri_rates_are_relative(ctx_builder):
    """A small absolute rise of a light job outranks a smaller relative
    rise of a heavy job: rates are normalised by P^{t-1}(J)."""
    state = ctx_builder.cluster.state
    ctx_builder.snap()
    # Job 0 (light): +0.3 util. Job 1 (heavy): +0.05 util.
    state.set_load(np.arange(0, 4), 0.6, 0.2, 0.1)
    state.set_load(np.arange(4, 10), 0.95, 0.5, 0.3)
    ctx = ctx_builder.snap()
    rates = ctx.job_increase_rates()
    assert rates[0] > rates[1]
    selection = make_policy("hri").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(0, 4))


def test_hri_falls_through_undegradable_riser(ctx_builder):
    state = ctx_builder.cluster.state
    state.set_levels(np.arange(0, 4), 0)  # job 0 cannot degrade
    ctx_builder.snap()
    state.set_load(np.arange(0, 4), 0.9, 0.2, 0.1)  # job 0 surges anyway
    state.set_load(np.arange(10, 14), 0.7, 0.4, 0.2)  # job 2 rises a bit
    ctx = ctx_builder.snap()
    selection = make_policy("hri").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(10, 14))


def test_hri_job_appearing_between_snapshots_has_no_rate(ctx_builder):
    state = ctx_builder.cluster.state
    ctx_builder.snap()
    state.assign_job(np.array([14, 15]), 9)  # new job after t-1
    state.set_load(np.array([14, 15]), 0.99, 0.5, 0.3)
    ctx = ctx_builder.snap()
    assert 9 not in ctx.job_increase_rates()


def test_hric_accumulates_risers(ctx_builder):
    state = ctx_builder.cluster.state
    ctx_builder.snap()
    # Two risers: job 0 fastest, job 2 second.
    state.set_load(np.arange(0, 4), 0.9, 0.2, 0.1)
    state.set_load(np.arange(10, 14), 0.75, 0.4, 0.2)
    probe = ctx_builder.snap()
    s0 = probe.savings_of_job(0)
    # Deficit beyond job 0's savings forces job 2 into the collection.
    # (Rebuild the same situation for a fresh context.)
    state.set_load(np.arange(0, 4), 0.3, 0.2, 0.1)
    state.set_load(np.arange(10, 14), 0.6, 0.4, 0.2)
    ctx_builder.snap()
    state.set_load(np.arange(0, 4), 0.9, 0.2, 0.1)
    state.set_load(np.arange(10, 14), 0.75, 0.4, 0.2)
    ctx = ctx_builder.snap(system_power=4000.0 + 1.5 * s0, p_low=4000.0)
    selection = make_policy("hri-c").select(ctx)
    expected = np.concatenate([np.arange(0, 4), np.arange(10, 14)])
    np.testing.assert_array_equal(selection, expected)


def test_hric_small_deficit_single_riser(ctx_builder):
    state = ctx_builder.cluster.state
    ctx_builder.snap()
    state.set_load(np.arange(0, 4), 0.9, 0.2, 0.1)
    ctx = ctx_builder.snap(system_power=4000.1, p_low=4000.0)
    selection = make_policy("hri-c").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(0, 4))


def test_hric_empty_without_previous(ctx_builder):
    ctx = ctx_builder.snap()
    assert len(make_policy("hri-c").select(ctx)) == 0


def test_hri_ties_break_deterministically(ctx_builder):
    """Unchanged loads give every job the same (zero) rate; the lowest
    job id with degradable nodes is picked."""
    ctx_builder.snap()
    ctx = ctx_builder.snap()
    rates = ctx.job_increase_rates()
    assert all(abs(r) < 1e-12 for r in rates.values())
    selection = make_policy("hri").select(ctx)
    np.testing.assert_array_equal(selection, np.arange(0, 4))
