"""Unit tests for the extension policies, the registry and the context."""

import numpy as np
import pytest

from repro.core.policies import (
    SelectionPolicy,
    available_policies,
    make_policy,
    register_policy,
)
from repro.errors import PolicyError


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_all_paper_policies_registered():
    names = available_policies()
    for expected in ("mpc", "mpc-c", "lpc", "lpc-c", "bfp", "hri", "hri-c"):
        assert expected in names


def test_extension_policies_registered():
    names = available_policies()
    for expected in ("random", "fair", "hybrid"):
        assert expected in names


def test_make_policy_unknown_name():
    with pytest.raises(PolicyError):
        make_policy("nonexistent")


def test_policy_name_attribute():
    assert make_policy("mpc").name == "mpc"
    assert make_policy("hri-c").name == "hri-c"


def test_double_registration_rejected():
    with pytest.raises(PolicyError):

        @register_policy("mpc")
        class Duplicate(SelectionPolicy):  # pragma: no cover
            def select(self, ctx):
                return self.empty_selection()


def test_register_non_policy_rejected():
    with pytest.raises(PolicyError):
        register_policy("not-a-policy")(int)


# ----------------------------------------------------------------------
# PolicyContext derived quantities
# ----------------------------------------------------------------------
def test_deficit(ctx_builder):
    ctx = ctx_builder.snap(system_power=4500.0, p_low=4000.0)
    assert ctx.deficit_w == pytest.approx(500.0)
    green = ctx_builder.snap(system_power=3000.0, p_low=4000.0)
    assert green.deficit_w == 0.0


def test_node_power_cached(ctx_builder):
    ctx = ctx_builder.snap()
    assert ctx.node_power is ctx.node_power


def test_job_table_contents(ctx_builder):
    ctx = ctx_builder.snap()
    assert list(ctx.job_table.job_ids) == [0, 1, 2]
    assert ctx.job_table.power_of(1) > ctx.job_table.power_of(2)
    assert ctx.job_table.power_of(2) > ctx.job_table.power_of(0)


def test_degradable_nodes_of_job_sorted(ctx_builder):
    ctx = ctx_builder.snap()
    nodes = ctx.degradable_nodes_of_job(1)
    np.testing.assert_array_equal(nodes, np.arange(4, 10))


def test_savings_of_job_positive(ctx_builder):
    ctx = ctx_builder.snap()
    assert ctx.savings_of_job(1) > ctx.savings_of_job(0) > 0


# ----------------------------------------------------------------------
# Extension policies
# ----------------------------------------------------------------------
def test_random_policy_targets_whole_jobs(ctx_builder):
    rng = np.random.default_rng(0)
    policy = make_policy("random", rng=rng)
    ctx = ctx_builder.snap()
    job_node_sets = [tuple(range(0, 4)), tuple(range(4, 10)), tuple(range(10, 14))]
    for _ in range(20):
        sel = tuple(policy.select(ctx))
        assert sel in job_node_sets


def test_random_policy_requires_rng():
    with pytest.raises(PolicyError):
        make_policy("random", rng=None)


def test_random_policy_covers_all_jobs_eventually(ctx_builder):
    rng = np.random.default_rng(1)
    policy = make_policy("random", rng=rng)
    ctx = ctx_builder.snap()
    seen = {tuple(policy.select(ctx)) for _ in range(60)}
    assert len(seen) == 3


def test_fair_policy_rotates(ctx_builder):
    policy = make_policy("fair")
    ctx = ctx_builder.snap()
    first = tuple(policy.select(ctx))
    second = tuple(policy.select(ctx))
    third = tuple(policy.select(ctx))
    assert {first, second, third} == {
        tuple(range(0, 4)),
        tuple(range(4, 10)),
        tuple(range(10, 14)),
    }
    # Fourth selection wraps around to the least-hit job again.
    fourth = tuple(policy.select(ctx))
    assert fourth == first


def test_hybrid_uses_mpc_without_rates(ctx_builder):
    policy = make_policy("hybrid")
    ctx = ctx_builder.snap()  # no previous snapshot
    np.testing.assert_array_equal(policy.select(ctx), np.arange(4, 10))


def test_hybrid_switches_to_hri_on_surge(ctx_builder):
    policy = make_policy("hybrid", rate_threshold=0.05)
    state = ctx_builder.cluster.state
    ctx_builder.snap()
    state.set_load(np.arange(0, 4), 0.9, 0.2, 0.1)  # job 0 surges
    ctx = ctx_builder.snap()
    np.testing.assert_array_equal(policy.select(ctx), np.arange(0, 4))


def test_hybrid_stays_mpc_below_threshold(ctx_builder):
    policy = make_policy("hybrid", rate_threshold=0.5)  # very high bar
    state = ctx_builder.cluster.state
    ctx_builder.snap()
    state.set_load(np.arange(0, 4), 0.5, 0.2, 0.1)  # mild rise only
    ctx = ctx_builder.snap()
    np.testing.assert_array_equal(policy.select(ctx), np.arange(4, 10))


def test_hybrid_validation():
    with pytest.raises(PolicyError):
        make_policy("hybrid", rate_threshold=-1.0)
