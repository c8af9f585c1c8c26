"""Unit tests for the SLA-aware selection policy.

Fixture layout (``busy_cluster``): job 0 on nodes 0–3 (light), job 1 on
nodes 4–9 (heavy), job 2 on nodes 10–13 (medium).
"""

import numpy as np
import pytest

from repro.core.policies import SlaAwarePolicy, make_policy
from repro.errors import PolicyError


def test_lowest_priority_job_targeted_first(ctx_builder):
    priorities = {0: 2, 1: 1, 2: 0}  # job 2 least important
    policy = make_policy("sla", priority_of=priorities.__getitem__)
    ctx = ctx_builder.snap()
    np.testing.assert_array_equal(policy.select(ctx), np.arange(10, 14))


def test_power_breaks_priority_ties(ctx_builder):
    """Equal priorities: the most power-consuming job goes first (the
    MPC ordering within a class)."""
    policy = make_policy("sla", priority_of=lambda jid: 0)
    ctx = ctx_builder.snap()
    np.testing.assert_array_equal(policy.select(ctx), np.arange(4, 10))


def test_falls_through_undegradable_jobs(ctx_builder):
    ctx_builder.cluster.state.set_levels(np.arange(10, 14), 0)  # job 2 floored
    priorities = {0: 2, 1: 1, 2: 0}
    policy = make_policy("sla", priority_of=priorities.__getitem__)
    ctx = ctx_builder.snap()
    # Job 2 (lowest class) cannot degrade; job 1 is next.
    np.testing.assert_array_equal(policy.select(ctx), np.arange(4, 10))


def test_requires_lookup():
    with pytest.raises(PolicyError):
        SlaAwarePolicy(priority_of=None)


def test_unknown_jobs_default_priority_zero():
    """The generator lookup returns 0 for unknown ids — document that
    contract here via the generator itself."""
    from repro.sim import RandomSource
    from repro.workload import RandomJobGenerator

    generator = RandomJobGenerator(
        RandomSource(seed=0).stream("g"), priority_choices=(1, 2, 3)
    )
    job = generator.next_job(0.0)
    assert generator.priority_of(job.job_id) == job.priority
    assert generator.priority_of(12345) == 0
