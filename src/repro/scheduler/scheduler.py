"""The tick-driven batch scheduler.

:class:`BatchScheduler` owns the job lifecycle: it polls its feeder for
arrivals, starts queued jobs FCFS as soon as enough whole nodes are idle,
advances running jobs through the :class:`~repro.workload.executor.JobExecutor`,
and retires completions (releasing their nodes).  It is driven by a single
``tick(now, dt)`` call per control interval; in experiments that call
comes from the fixed-period loop of ``_World.tick`` in
:mod:`repro.experiments.common`.  Where no manager is attached, that
loop calls :meth:`BatchScheduler.tick_block` instead, which runs the
quiet intervals up to the next job finish in one call.

Ordering within one tick matters and is fixed as:

1. **advance** running jobs by ``dt`` (work happens during the interval
   that just elapsed);
2. **retire** jobs that finished during the interval (their nodes become
   idle at the tick boundary);
3. **poll** the feeder (the §V.C rule tops the queue up *after* it may
   have been emptied by starts in the previous tick);
4. **start** queued jobs FCFS while the head job fits.

Strict FCFS (no backfill) matches the paper's minimal launcher; a head
job too big for the currently idle nodes blocks the queue until
completions free enough nodes.

The power-emergency ladder (:mod:`repro.provision.emergency`) drives the
extra transitions: :meth:`BatchScheduler.suspend_job` /
:meth:`~BatchScheduler.resume_job` freeze and thaw a running job in
place, :meth:`~BatchScheduler.kill_job` terminates one whose rack
blacked out, and :meth:`~BatchScheduler.take_offline` /
:meth:`~BatchScheduler.bring_online` fence nodes out of (and back into)
the allocation pool without touching the cluster state.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.state import ClusterState
from repro.errors import SchedulingError
from repro.obs.facade import Observability, resolve_obs
from repro.scheduler.allocator import NodeAllocator
from repro.scheduler.feeder import Feeder, KeepQueueFilledFeeder
from repro.scheduler.queue import JobQueue
from repro.workload.executor import JobExecutor, StepBlock
from repro.workload.job import Job, JobState

__all__ = ["BatchScheduler"]


class BatchScheduler:
    """FCFS whole-node scheduler over a simulated cluster.

    Args:
        cluster: The machine.
        executor: Advances running jobs and writes their load.
        feeder: Supplies arrivals (see :mod:`repro.scheduler.feeder`).
        obs: Observability facade; when its metric registry is live the
            job-lifecycle statistics are mirrored as collected series.
    """

    def __init__(
        self,
        cluster: Cluster,
        executor: JobExecutor,
        feeder: Feeder,
        obs: Observability | None = None,
    ) -> None:
        self._cluster = cluster
        self._executor = executor
        self._feeder = feeder
        self._allocator = NodeAllocator(cluster)
        self._queue = JobQueue()
        self._running: dict[int, Job] = {}
        self._finished: list[Job] = []
        self._killed: list[Job] = []
        self._started_count = 0
        self._suspend_count = 0
        self._resume_count = 0
        self._offline = np.zeros(cluster.num_nodes, dtype=bool)
        #: The queue head the last FCFS pass could not place.  Only a
        #: finish, a kill or a return from the offline fence frees nodes
        #: (each clears it), so until then the same head cannot fit.
        self._refused: Job | None = None
        self._register_metrics(resolve_obs(obs))

    def _register_metrics(self, obs: Observability) -> None:
        """Mirror job-lifecycle statistics as collected metric series."""
        if not obs.metrics_on:
            return
        reg = obs.metrics
        reg.counter_func(
            "repro_jobs_started_total",
            "Jobs ever started",
            lambda: float(self._started_count),
        )
        reg.counter_func(
            "repro_jobs_finished_total",
            "Jobs completed so far",
            lambda: float(len(self._finished)),
        )
        reg.gauge_func(
            "repro_jobs_running",
            "Jobs currently running",
            lambda: float(len(self._running)),
        )
        reg.gauge_func(
            "repro_queue_depth",
            "Jobs waiting in the scheduler queue",
            lambda: float(len(self._queue)),
        )
        reg.gauge_func(
            "repro_jobs_suspended",
            "Jobs currently suspended by the power-emergency ladder",
            lambda: float(len(self.suspended_jobs)),
        )
        reg.gauge_func(
            "repro_nodes_offline",
            "Nodes fenced out of the allocation pool",
            lambda: float(self._offline.sum()),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue(self) -> JobQueue:
        """The pending-job queue."""
        return self._queue

    @property
    def running_jobs(self) -> list[Job]:
        """Currently active (running or suspended) jobs, insertion order."""
        return list(self._running.values())

    @property
    def suspended_jobs(self) -> list[Job]:
        """Currently suspended jobs, insertion order."""
        return [
            j for j in self._running.values() if j.state is JobState.SUSPENDED
        ]

    @property
    def finished_jobs(self) -> list[Job]:
        """Jobs completed so far, in completion order."""
        return list(self._finished)

    @property
    def killed_jobs(self) -> list[Job]:
        """Jobs terminated by blackouts, in kill order."""
        return list(self._killed)

    @property
    def started_count(self) -> int:
        """Number of jobs ever started."""
        return self._started_count

    @property
    def suspend_count(self) -> int:
        """Number of suspend transitions performed."""
        return self._suspend_count

    @property
    def resume_count(self) -> int:
        """Number of resume transitions performed."""
        return self._resume_count

    @property
    def offline_mask(self) -> np.ndarray:
        """Boolean mask of nodes fenced out of the allocation pool (copy)."""
        return self._offline.copy()

    @property
    def cluster_state(self) -> ClusterState:
        """The live cluster state the scheduler allocates over."""
        return self._cluster.state

    def job_nodes(self, job_id: int) -> np.ndarray:
        """Nodes of a running job.

        Raises:
            SchedulingError: if the job is not running.
        """
        job = self._running.get(job_id)
        if job is None:
            raise SchedulingError(f"job {job_id} is not running")
        return job.nodes

    def running_job(self, job_id: int) -> Job:
        """The running job with ``job_id``.

        Raises:
            SchedulingError: if the job is not running.
        """
        job = self._running.get(job_id)
        if job is None:
            raise SchedulingError(f"job {job_id} is not running")
        return job

    def idle(self) -> bool:
        """True when nothing is queued or running and the feeder is dry."""
        return (
            not self._queue and not self._running and self._feeder.exhausted()
        )

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def tick(self, now: float, dt: float) -> list[Job]:
        """Run one scheduling interval ending at ``now``.

        Args:
            now: Simulated time at the *end* of the interval (the tick
                instant); work advanced during ``[now - dt, now]``.
            dt: Interval length, seconds.

        Returns:
            Jobs that finished during this interval.
        """
        block = self._executor.advance(list(self._running.values()), now - dt, dt)
        return self._close_interval(now, block)

    def tick_block(self, times: np.ndarray, dt: float) -> StepBlock:
        """Run consecutive scheduling intervals ending at ``times``, as
        many as one job-stepping call covers while nothing can start.

        While the scheduler is quiet (see :meth:`quiet`) the intervals
        before the next job finish cannot start, retire or enqueue
        anything, so they are the executor's alone: it steps a block of
        them in one call, ending with the first interval in which a job
        finishes (or earlier; at least one).  That last interval is
        closed as :meth:`tick` closes one.  Otherwise only the first
        interval runs.  The result equals that many :meth:`tick` calls
        bit for bit.

        Returns:
            The executor's :class:`~repro.workload.executor.StepBlock`;
            its ``ticks`` intervals ran, the last ending at
            ``times[ticks - 1]``.
        """
        if not self.quiet():
            times = times[:1]
        block = self._executor.advance(
            list(self._running.values()), times - dt, dt
        )
        self._close_interval(float(times[block.ticks - 1]), block)
        return block

    def quiet(self) -> bool:
        """Whether no job can start or arrive before the next finish.

        Strict FCFS with the keep-filled feeder: the queue is not empty
        (so the feeder adds nothing) and its head does not fit the idle
        nodes outside the offline fence (so nothing starts).  Within one
        :meth:`tick_block` call neither can change before a job
        finishes and frees its nodes.
        """
        if not self._queue or not isinstance(self._feeder, KeepQueueFilledFeeder):
            return False
        head = self._queue.peek()
        if head is self._refused:
            return True
        needed = self._allocator.nodes_needed(head.nprocs)
        return needed > self._allocator.free_nodes(blocked=self._offline)

    def _close_interval(self, now: float, block: StepBlock) -> list[Job]:
        """Retire the finishers of the interval ending at ``now``, then
        poll the feeder and start what fits."""
        finished_now: list[Job] = []
        for notice in block.finished:
            job = notice.job
            job.finish(notice.finish_time)
            self._cluster.state.release_job(job.nodes)
            del self._running[job.job_id]
            self._finished.append(job)
            finished_now.append(job)
            self._refused = None
        self._feeder.poll(now, self._queue)
        self._start_fcfs(now)
        return finished_now

    def _start_fcfs(self, now: float) -> None:
        if self._queue and self._queue.peek() is self._refused:
            return  # no node was freed since this head was refused
        blocked = self._offline if self._offline.any() else None
        while self._queue:
            head = self._queue.peek()
            nodes = self._allocator.try_allocate(head.nprocs, blocked=blocked)
            if nodes is None:
                self._refused = head
                break  # strict FCFS: the head blocks the queue
            job = self._queue.pop()
            self._cluster.state.assign_job(nodes, job.job_id)
            job.start(now, nodes)
            self._running[job.job_id] = job
            self._started_count += 1
            # §V.C: the queue is refilled the moment it empties, so a
            # start that drained it triggers an immediate top-up (the new
            # job may itself start this very tick if nodes remain).
            self._feeder.poll(now, self._queue)

    # ------------------------------------------------------------------
    # Job-state transitions for power management
    # ------------------------------------------------------------------
    def all_jobs(self) -> list[Job]:
        """Every job known: queued + active + finished + killed."""
        return (
            list(self._queue)
            + list(self._running.values())
            + self._finished
            + self._killed
        )

    # ------------------------------------------------------------------
    # Power-emergency transitions (repro.provision.emergency)
    # ------------------------------------------------------------------
    def suspend_job(self, job_id: int, now: float) -> None:
        """Suspend a running job in place: progress freezes, its nodes'
        load drops to idle, but the nodes stay assigned (the job resumes
        where it stopped, on the same nodes).

        Raises:
            SchedulingError: if the job is not active.
        """
        job = self.running_job(job_id)
        job.suspend(now)
        self._cluster.state.set_load(job.nodes, 0.0, 0.0, 0.0)
        self._suspend_count += 1

    def resume_job(self, job_id: int, now: float) -> bool:
        """Resume a suspended job; the executor re-applies its load on
        the next tick.  Returns False (no-op) if the job is gone or its
        nodes are fenced offline — e.g. the rack blacked out while it
        was suspended."""
        job = self._running.get(job_id)
        if job is None or job.state is not JobState.SUSPENDED:
            return False
        if bool(self._offline[job.nodes].any()):
            return False
        job.resume(now)
        self._resume_count += 1
        return True

    def kill_job(self, job_id: int, now: float) -> None:
        """Terminate an active job (its rack blacked out) and release
        its nodes; the job never counts as finished.

        Raises:
            SchedulingError: if the job is not active.
        """
        job = self.running_job(job_id)
        job.kill(now)
        self._cluster.state.release_job(job.nodes)
        del self._running[job.job_id]
        self._killed.append(job)
        self._refused = None

    def take_offline(self, node_ids: np.ndarray, now: float) -> None:
        """Fence nodes out of the allocation pool (shed or blacked out).

        Purely a scheduler-side fence: the cluster state is untouched,
        already-assigned jobs keep their nodes (blackout victims are
        killed separately by the emergency response).
        """
        self._offline[np.asarray(node_ids, dtype=np.int64)] = True

    def bring_online(self, node_ids: np.ndarray) -> None:
        """Re-admit fenced nodes into the allocation pool."""
        self._offline[np.asarray(node_ids, dtype=np.int64)] = False
        self._refused = None
