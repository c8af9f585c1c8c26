"""Unit tests for the tick-driven batch scheduler and feeders."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.scheduler import BatchScheduler, KeepQueueFilledFeeder, ListFeeder
from repro.sim import RandomSource
from repro.workload import (
    Job,
    JobExecutor,
    JobState,
    RandomJobGenerator,
    executor,
    get_application,
)


@pytest.fixture(autouse=True)
def _noiseless_load(monkeypatch):
    """Every test here steps jobs on noiseless load: the executor's
    jitter and node noise are patched to 0 for the test."""
    monkeypatch.setattr(executor, "UTIL_JITTER_STD", 0.0)
    monkeypatch.setattr(executor, "NODE_NOISE_STD", 0.0)


def _executor(cluster):
    return JobExecutor(
        cluster.state, RandomSource(seed=3).stream("exec"), modulation_std=0.0
    )


def _job(job_id, nprocs=12, submit=0.0, app="EP"):
    return Job(
        job_id=job_id, app=get_application(app), nprocs=nprocs, submit_time=submit
    )


def _scheduler_with_jobs(cluster, jobs):
    return BatchScheduler(cluster, _executor(cluster), ListFeeder(jobs))


def test_job_starts_when_nodes_available(small_cluster):
    sched = _scheduler_with_jobs(small_cluster, [_job(0, nprocs=24)])
    sched.tick(1.0, 1.0)
    assert sched.started_count == 1
    job = sched.running_job(0)
    assert job.state is JobState.RUNNING
    assert list(job.nodes) == [0, 1]
    assert np.all(small_cluster.state.job_id[[0, 1]] == 0)


def test_fcfs_head_blocks_queue(small_cluster):
    # Job 0 takes 15 nodes; job 1 needs 2 (doesn't fit); job 2 needs 1
    # but FCFS must NOT let it jump the queue.
    jobs = [_job(0, nprocs=15 * 12), _job(1, nprocs=24), _job(2, nprocs=12)]
    sched = _scheduler_with_jobs(small_cluster, jobs)
    sched.tick(1.0, 1.0)
    assert sched.started_count == 1
    assert len(sched.queue) == 2
    assert sched.queue.peek().job_id == 1


def test_completion_releases_nodes_and_starts_next(small_cluster):
    short = _job(0, nprocs=16 * 12)  # whole machine
    short.progress_s = short.nominal_runtime_s - 0.5  # nearly done at start
    jobs = [short, _job(1, nprocs=12)]
    sched = _scheduler_with_jobs(small_cluster, jobs)
    sched.tick(1.0, 1.0)  # job 0 starts
    assert sched.started_count == 1
    sched.tick(2.0, 1.0)  # job 0 finishes, job 1 starts
    assert [j.job_id for j in sched.finished_jobs] == [0]
    assert sched.running_job(1).state is JobState.RUNNING
    assert small_cluster.state.idle_mask().sum() == 15


def test_finish_time_interpolated(small_cluster):
    job = _job(0, nprocs=12)
    job.progress_s = job.nominal_runtime_s - 0.25
    sched = _scheduler_with_jobs(small_cluster, [job])
    sched.tick(1.0, 1.0)
    finished = sched.tick(2.0, 1.0)
    assert len(finished) == 1
    assert finished[0].finish_time == pytest.approx(1.25)
    assert finished[0].actual_runtime_s == pytest.approx(0.25)


def test_keep_queue_filled_feeder_generates_on_empty(small_cluster, monkeypatch):
    # Jobs must fit the 16-node cluster.
    monkeypatch.setattr("repro.workload.generator.PAPER_NPROCS_CHOICES", (8, 16, 32))
    gen = RandomJobGenerator(RandomSource(seed=9).stream("gen"), runtime_scale=0.01)
    sched = BatchScheduler(small_cluster, _executor(small_cluster), KeepQueueFilledFeeder(gen))
    for t in range(1, 50):
        sched.tick(float(t), 1.0)
    # The feeder keeps work coming: something started, machine is in use.
    assert sched.started_count >= 1
    assert not sched.idle()


def test_list_feeder_exhausts(small_cluster):
    job = _job(0, nprocs=12)
    job.progress_s = job.nominal_runtime_s - 0.1
    sched = _scheduler_with_jobs(small_cluster, [job])
    sched.tick(1.0, 1.0)
    sched.tick(2.0, 1.0)
    assert sched.idle()


def test_running_job_lookup_errors(small_cluster):
    sched = _scheduler_with_jobs(small_cluster, [])
    with pytest.raises(SchedulingError):
        sched.running_job(42)
    with pytest.raises(SchedulingError):
        sched.job_nodes(42)


def test_all_jobs_view(small_cluster):
    jobs = [_job(0, nprocs=12), _job(1, nprocs=16 * 12)]
    sched = _scheduler_with_jobs(small_cluster, jobs)
    sched.tick(1.0, 1.0)
    everything = sched.all_jobs()
    assert {j.job_id for j in everything} == {0, 1}


def test_multiple_jobs_coexist(small_cluster):
    jobs = [_job(i, nprocs=36) for i in range(4)]  # 3 nodes each
    sched = _scheduler_with_jobs(small_cluster, jobs)
    sched.tick(1.0, 1.0)
    assert sched.started_count == 4
    assert small_cluster.state.busy_mask().sum() == 12
    # Jobs own disjoint node sets.
    owned = np.concatenate([sched.job_nodes(i) for i in range(4)])
    assert len(np.unique(owned)) == 12


# ----------------------------------------------------------------------
# Power-emergency transitions (driven by repro.provision.emergency)
# ----------------------------------------------------------------------
def test_suspend_freezes_job_and_zeroes_load(small_cluster):
    sched = _scheduler_with_jobs(small_cluster, [_job(0, nprocs=24)])
    sched.tick(1.0, 1.0)
    sched.tick(2.0, 1.0)  # executor applies the load one tick after start
    nodes = sched.job_nodes(0)
    assert small_cluster.state.cpu_util[nodes].sum() > 0.0
    sched.suspend_job(0, 3.0)
    job = sched.running_job(0)
    assert job.state is JobState.SUSPENDED
    assert sched.suspend_count == 1
    assert [j.job_id for j in sched.suspended_jobs] == [0]
    # Load dropped to idle, but the nodes stay assigned to the job.
    assert small_cluster.state.cpu_util[nodes].sum() == 0.0
    np.testing.assert_array_equal(small_cluster.state.job_id[nodes], 0)
    before = job.progress_s
    sched.tick(4.0, 1.0)
    assert sched.running_job(0).progress_s == before  # progress frozen


def test_resume_restores_running_and_reapplies_load(small_cluster):
    sched = _scheduler_with_jobs(small_cluster, [_job(0, nprocs=24)])
    sched.tick(1.0, 1.0)
    sched.suspend_job(0, 2.0)
    assert sched.resume_job(0, 3.0) is True
    assert sched.running_job(0).state is JobState.RUNNING
    assert sched.resume_count == 1
    before = sched.running_job(0).progress_s
    sched.tick(4.0, 1.0)
    assert sched.running_job(0).progress_s > before


def test_resume_is_noop_for_missing_or_running_jobs(small_cluster):
    sched = _scheduler_with_jobs(small_cluster, [_job(0)])
    sched.tick(1.0, 1.0)
    assert sched.resume_job(42, 2.0) is False  # no such job
    assert sched.resume_job(0, 2.0) is False  # not suspended
    assert sched.resume_count == 0


def test_resume_refused_while_nodes_fenced_offline(small_cluster):
    sched = _scheduler_with_jobs(small_cluster, [_job(0)])
    sched.tick(1.0, 1.0)
    sched.suspend_job(0, 2.0)
    sched.take_offline(sched.job_nodes(0), 3.0)
    assert sched.resume_job(0, 4.0) is False
    sched.bring_online(sched.job_nodes(0))
    assert sched.resume_job(0, 5.0) is True


def test_kill_releases_nodes_without_finishing(small_cluster):
    sched = _scheduler_with_jobs(small_cluster, [_job(0, nprocs=24)])
    sched.tick(1.0, 1.0)
    nodes = sched.job_nodes(0)
    sched.kill_job(0, 2.0)
    assert [j.job_id for j in sched.killed_jobs] == [0]
    assert sched.finished_jobs == []
    assert small_cluster.state.idle_mask()[nodes].all()
    with pytest.raises(SchedulingError):
        sched.running_job(0)


def test_suspend_and_kill_require_active_job(small_cluster):
    sched = _scheduler_with_jobs(small_cluster, [])
    with pytest.raises(SchedulingError):
        sched.suspend_job(7, 1.0)
    with pytest.raises(SchedulingError):
        sched.kill_job(7, 1.0)


def test_offline_nodes_are_fenced_out_of_allocation(small_cluster):
    sched = _scheduler_with_jobs(small_cluster, [_job(0, nprocs=15 * 12)])
    sched.take_offline(np.arange(4), 0.0)
    sched.tick(1.0, 1.0)
    # 15 nodes needed, only 12 admissible: the job must wait.
    assert sched.started_count == 0
    sched.bring_online(np.arange(4))
    sched.tick(2.0, 1.0)
    assert sched.started_count == 1


def test_offline_mask_is_a_copy(small_cluster):
    sched = _scheduler_with_jobs(small_cluster, [])
    mask = sched.offline_mask
    mask[:] = True
    assert not sched.offline_mask.any()
