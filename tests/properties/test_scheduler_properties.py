"""Property-based tests of batch-scheduler invariants.

Random closed job lists are driven to completion under both schedulers
(FCFS and EASY backfill); at every tick the bookkeeping invariants must
hold, and at the end every job must have completed exactly once.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.scheduler import BackfillScheduler, BatchScheduler, ListFeeder
from repro.sim import RandomSource
from repro.workload import Job, JobExecutor, JobState, executor, get_application

APPS = ("EP", "CG", "LU", "BT", "SP")

#: Noiseless load: the executor's jitter and node noise, patched to 0
#: for each test that steps jobs.
NO_LOAD_NOISE = mock.patch.multiple(executor, UTIL_JITTER_STD=0.0, NODE_NOISE_STD=0.0)


def _executor(cluster, seed):
    return JobExecutor(
        cluster.state,
        RandomSource(seed=seed).stream("exec"),
        modulation_std=0.0,
    )


job_specs = st.lists(
    st.tuples(
        st.sampled_from(APPS),
        st.sampled_from([8, 16, 32, 64, 96]),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)


def _materialise(specs, seed):
    """Jobs with tiny work so runs finish in few ticks."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i, (app_name, nprocs, submit) in enumerate(
        sorted(specs, key=lambda s: s[2])
    ):
        job = Job(
            job_id=i,
            app=get_application(app_name),
            nprocs=nprocs,
            submit_time=submit,
        )
        job.progress_s = max(0.0, job.nominal_runtime_s - rng.uniform(1.0, 30.0))
        jobs.append(job)
    return jobs


@NO_LOAD_NOISE
@given(job_specs, st.integers(min_value=0, max_value=1000), st.booleans())
@settings(max_examples=30, deadline=None)
def test_scheduler_invariants(specs, seed, use_backfill):
    cluster = Cluster.tianhe_1a(num_nodes=16)
    jobs = _materialise(specs, seed)
    cls = BackfillScheduler if use_backfill else BatchScheduler
    scheduler = cls(cluster, _executor(cluster, seed), ListFeeder(list(jobs)))

    for t in range(1, 200):
        scheduler.tick(float(t), 1.0)
        state = cluster.state

        # Occupancy bookkeeping: each running job owns exactly the nodes
        # marked with its id, and no node is double-owned.
        owned = []
        for job in scheduler.running_jobs:
            marked = np.flatnonzero(state.job_id == job.job_id)
            np.testing.assert_array_equal(np.sort(job.nodes), marked)
            owned.extend(job.nodes.tolist())
        assert len(owned) == len(set(owned))

        # Conservation: every job is in exactly one place.
        queued = {j.job_id for j in scheduler.queue}
        running = {j.job_id for j in scheduler.running_jobs}
        finished = {j.job_id for j in scheduler.finished_jobs}
        assert not (queued & running)
        assert not (queued & finished)
        assert not (running & finished)

        if scheduler.idle():
            break

    # Closed list + generous horizon: everything finished exactly once.
    assert scheduler.idle()
    assert len(scheduler.finished_jobs) == len(jobs)
    for job in scheduler.finished_jobs:
        assert job.state is JobState.FINISHED
        assert job.finish_time >= job.start_time >= job.submit_time


@NO_LOAD_NOISE
@given(job_specs, st.integers(min_value=0, max_value=1000))
@settings(max_examples=15, deadline=None)
def test_backfill_never_finishes_fewer_jobs(specs, seed):
    """Over the same horizon, backfill completes at least as many jobs
    as FCFS for the identical closed list."""

    def run(cls):
        cluster = Cluster.tianhe_1a(num_nodes=16)
        jobs = _materialise(specs, seed)
        scheduler = cls(cluster, _executor(cluster, seed), ListFeeder(jobs))
        for t in range(1, 120):
            scheduler.tick(float(t), 1.0)
            if scheduler.idle():
                break
        return len(scheduler.finished_jobs)

    assert run(BackfillScheduler) >= run(BatchScheduler)
