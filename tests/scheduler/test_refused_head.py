"""The FCFS pass's refused-head memo against a scheduler that always retries.

``BatchScheduler`` remembers the queue head its last FCFS pass could not
place and skips the retry until a finish, ``kill_job`` or
``bring_online`` frees nodes.  The reference here clears the memo
before every pass, so it retries the head each tick as a scheduler
without the memo would.  Hypothesis drives both through the same churn:
submissions, ticks (and so starts and finishes), ``kill_job``,
``take_offline``/``bring_online`` and ``suspend_job``/``resume_job``.
Every job start must match: the tick, the job and its nodes.  The same
pair runs for ``BackfillScheduler``, whose backfill pass follows the
FCFS pass.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.scheduler import BackfillScheduler, BatchScheduler, ListFeeder
from repro.sim import RandomSource
from repro.workload import NPB_APPLICATIONS, Job, JobExecutor, JobState

NUM_NODES = 8
CORES = 12


class _RetryingScheduler(BatchScheduler):
    """Retries the refused head on every pass."""

    def _start_fcfs(self, now: float) -> None:
        self._refused = None
        super()._start_fcfs(now)


class _RetryingBackfill(BackfillScheduler):
    """Retries the refused head on every pass, then backfills."""

    def _start_fcfs(self, now: float) -> None:
        self._refused = None
        super()._start_fcfs(now)


#: Which active jobs each transition may pick from.
_ELIGIBLE = {
    "suspend": (JobState.RUNNING,),
    "resume": (JobState.SUSPENDED,),
    "kill": (JobState.RUNNING, JobState.SUSPENDED),
}

_ACTION = st.one_of(
    st.tuples(
        st.just("submit"),
        st.sampled_from(sorted(NPB_APPLICATIONS)),
        st.integers(1, NUM_NODES),
    ),
    # Mostly short ticks, so fenced heads wait for more than a finish.
    st.tuples(st.just("tick"), st.sampled_from([1.0, 1.0, 1.0, 30.0, 3000.0])),
    st.tuples(st.sampled_from(sorted(_ELIGIBLE)), st.integers(0, 64)),
    st.tuples(
        st.just("offline"), st.integers(0, NUM_NODES - 1), st.integers(1, NUM_NODES)
    ),
    st.tuples(st.just("online")),
)


class _World:
    def __init__(self, scheduler_cls: type[BatchScheduler]) -> None:
        self.cluster = Cluster.tianhe_1a(NUM_NODES)
        executor = JobExecutor(
            self.cluster.state, RandomSource(seed=11).stream("workload.executor")
        )
        self.scheduler = scheduler_cls(self.cluster, executor, ListFeeder([]))
        self.now = 0.0
        self.submitted = 0

    def apply(self, action: tuple[Any, ...]) -> None:
        sched = self.scheduler
        kind = action[0]
        if kind == "submit":
            app, nodes = NPB_APPLICATIONS[action[1]], action[2]
            job = Job(self.submitted, app, nodes * CORES, submit_time=self.now)
            sched.queue.push(job)
            self.submitted += 1
        elif kind == "tick":
            self.now += action[1]
            sched.tick(self.now, action[1])
        elif kind == "offline":
            first, count = action[1], action[2]
            sched.take_offline(np.arange(first, min(first + count, NUM_NODES)), self.now)
        elif kind == "online":
            sched.bring_online(np.flatnonzero(sched.offline_mask))
        else:
            pool = [j for j in sched.running_jobs if j.state in _ELIGIBLE[kind]]
            if pool:
                job_id = pool[action[1] % len(pool)].job_id
                getattr(sched, f"{kind}_job")(job_id, self.now)

    def starts(self) -> list[tuple[int, float | None, tuple[int, ...]]]:
        return sorted(
            (job.job_id, job.start_time, tuple(job.nodes.tolist()))
            for job in self.scheduler.all_jobs()
            if job.start_time is not None
        )


@settings(max_examples=150, deadline=None)
@given(
    pair=st.sampled_from(
        [(BatchScheduler, _RetryingScheduler), (BackfillScheduler, _RetryingBackfill)]
    ),
    actions=st.lists(_ACTION, min_size=5, max_size=60),
)
def test_memo_starts_what_retrying_starts(
    pair: tuple[type[BatchScheduler], type[BatchScheduler]],
    actions: list[tuple[Any, ...]],
) -> None:
    memo, retrying = _World(pair[0]), _World(pair[1])
    for action in actions:
        memo.apply(action)
        retrying.apply(action)
        assert memo.starts() == retrying.starts()
    assert memo.scheduler.started_count == retrying.scheduler.started_count


def test_memo_clears_when_fenced_nodes_return() -> None:
    """A head refused only because of the fence starts on the next tick
    after ``bring_online`` returns the nodes."""
    world = _World(BatchScheduler)
    sched = world.scheduler
    world.apply(("offline", 0, 4))
    world.apply(("submit", "EP", 6))
    world.apply(("tick", 1.0))
    assert sched.started_count == 0
    world.apply(("online",))
    world.apply(("tick", 1.0))
    assert sched.started_count == 1
    assert sched.running_jobs[0].nodes.tolist() == list(range(6))
