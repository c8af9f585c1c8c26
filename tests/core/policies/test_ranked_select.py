"""MPC and LPC select what the per-job walk selects.

``_RankedJobPolicy.select`` finds the jobs with a degradable node in one
snapshot pass and takes the best-ranked of them.  The walk it replaced
asked every ranked job for its degradable nodes in turn, one snapshot
pass per job, until one had some; it is kept here as the reference.
Hypothesis builds snapshots with idle nodes, jobs whose nodes all sit at
the DVFS floor, and jobs of equal estimated power.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import NodeSpec
from repro.core.policies import make_policy
from repro.core.policies.base import PolicyContext
from repro.core.thresholds import PowerThresholds
from repro.power import PowerModel
from repro.power.estimator import NodePowerEstimator
from repro.telemetry import TelemetrySnapshot

SPEC = NodeSpec.tianhe_1a()
ESTIMATOR = NodePowerEstimator(PowerModel(SPEC))


def _walk(policy, ctx: PolicyContext) -> np.ndarray:
    for job_id in policy._ranked_jobs(ctx):
        nodes = ctx.degradable_nodes_of_job(int(job_id))
        if len(nodes):
            return nodes
    return policy.empty_selection()


@st.composite
def _snapshots(draw):
    n = draw(st.integers(1, 24))
    ids = np.array(sorted(draw(st.sets(st.integers(0, 63), min_size=n, max_size=n))))
    jobs = draw(st.integers(1, 6))
    job = np.array(draw(st.lists(st.integers(-1, jobs - 1), min_size=n, max_size=n)))
    floor = draw(st.sets(st.integers(0, jobs - 1)))  # jobs held at level 0
    level = np.array(
        draw(st.lists(st.integers(0, SPEC.top_level), min_size=n, max_size=n))
    )
    level[np.isin(job, list(floor))] = 0
    # Few distinct loads, so jobs of equal power are common.
    load = st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)
    cpu, mem, nic = (np.array(draw(load)) for _ in range(3))
    return TelemetrySnapshot(
        time=1.0,
        node_ids=ids.astype(np.int64),
        level=level.astype(np.int64),
        cpu_util=cpu,
        mem_frac=mem,
        nic_frac=nic,
        job_id=job.astype(np.int64),
    )


def _context(snapshot: TelemetrySnapshot) -> PolicyContext:
    return PolicyContext(
        snapshot=snapshot,
        previous=None,
        estimator=ESTIMATOR,
        system_power=1000.0,
        thresholds=PowerThresholds(p_low=900.0, p_high=1100.0),
    )


@settings(max_examples=200, deadline=None)
@given(snapshot=_snapshots(), name=st.sampled_from(["mpc", "lpc"]))
def test_select_matches_the_per_job_walk(snapshot, name):
    policy = make_policy(name)
    selected = policy.select(_context(snapshot))
    expected = _walk(policy, _context(snapshot))
    np.testing.assert_array_equal(selected, expected)
    assert selected.dtype == expected.dtype


def test_jobs_all_at_the_floor_select_nothing():
    snapshot = TelemetrySnapshot(
        time=1.0,
        node_ids=np.arange(4, dtype=np.int64),
        level=np.zeros(4, dtype=np.int64),
        cpu_util=np.full(4, 0.5),
        mem_frac=np.full(4, 0.5),
        nic_frac=np.full(4, 0.5),
        job_id=np.array([0, 0, 1, -1], dtype=np.int64),
    )
    for name in ("mpc", "lpc"):
        assert len(make_policy(name).select(_context(snapshot))) == 0
