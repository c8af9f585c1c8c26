"""EASY backfill: an optional upgrade over the paper's strict FCFS.

The paper's launcher is strict FCFS ("loaded to the system as soon as
the required hardware resource is available"): a wide job at the head
blocks everything behind it and drains the machine, which both wastes
cycles and produces artificial power troughs.  EASY (aggressive)
backfill is the standard fix: while the head job waits, later jobs may
jump ahead *iff* they cannot delay the head's earliest possible start.

Implementation notes:

* the head's *reservation* is computed from the running jobs' estimated
  completion times; estimates use nominal runtimes (the simulator's
  ground truth at full frequency, i.e. slightly optimistic under
  capping — exactly the situation a real EASY scheduler with user
  estimates faces, so capping-induced stretch exercises the reservation
  logic realistically);
* a candidate backfills if (a) enough nodes are idle now, and (b) its
  estimated completion ``now + estimate`` does not exceed the head's
  reservation time, **or** it uses only nodes the head won't need
  (the standard spare-node condition collapses to a count comparison on
  a homogeneous whole-node machine);
* nodes fenced offline by the power-emergency ladder (see
  :meth:`~repro.scheduler.scheduler.BatchScheduler.take_offline`) are
  never counted idle, never allocated, and not counted as freed when
  the job holding them ends.

The class is a drop-in replacement for
:class:`~repro.scheduler.scheduler.BatchScheduler` (same ``tick``
contract); the ablation bench compares power behaviour under both.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.obs.facade import Observability, resolve_obs
from repro.scheduler.feeder import Feeder
from repro.scheduler.scheduler import BatchScheduler
from repro.workload.executor import JobExecutor
from repro.workload.job import Job

__all__ = ["BackfillScheduler"]


class BackfillScheduler(BatchScheduler):
    """FCFS with EASY (reservation-preserving) backfill."""

    def __init__(
        self,
        cluster: Cluster,
        executor: JobExecutor,
        feeder: Feeder,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(cluster, executor, feeder, obs=obs)
        self._backfilled_count = 0
        resolved = resolve_obs(obs)
        if resolved.metrics_on:
            resolved.metrics.counter_func(
                "repro_jobs_backfilled_total",
                "Jobs started out of FIFO order by the backfill rule",
                lambda: float(self._backfilled_count),
            )

    @property
    def backfilled_count(self) -> int:
        """Jobs started out of FIFO order by the backfill rule."""
        return self._backfilled_count

    # ------------------------------------------------------------------
    # Scheduling override
    # ------------------------------------------------------------------
    def quiet(self) -> bool:
        """Never: a backfill pass may start a later job at any tick, so
        :meth:`tick_block` runs one interval per call."""
        return False

    def _start_fcfs(self, now: float) -> None:
        # First run the plain FCFS pass (starts the head while it fits).
        super()._start_fcfs(now)
        if not self._queue:
            return
        head = self._queue.peek()
        head_nodes_needed = self._allocator.nodes_needed(head.nprocs)
        reservation = self._head_reservation_time(now, head_nodes_needed)
        if reservation is None:
            return  # head can never start; nothing to protect

        # Try to backfill the remaining queued jobs in FIFO order.
        for job in list(self._queue)[1:]:
            needed = self._allocator.nodes_needed(job.nprocs)
            idle = self._allocator.free_nodes(blocked=self._offline)
            if needed > idle:
                continue
            spare_now = idle - head_nodes_needed
            fits_beside_head = needed <= spare_now
            finishes_in_time = now + job.remaining_work_s <= reservation + 1e-9
            if not (fits_beside_head or finishes_in_time):
                continue
            self._start_out_of_order(job, now)

    def _head_reservation_time(
        self, now: float, head_nodes_needed: int
    ) -> float | None:
        """Earliest time the head is guaranteed its nodes.

        Walks running jobs in estimated-completion order, releasing
        their nodes onto the idle pool until the head fits.  Nodes
        fenced offline count as neither idle nor freed.
        """
        idle = self._allocator.free_nodes(blocked=self._offline)
        if idle >= head_nodes_needed:
            return now
        completions = sorted(
            (
                self._estimated_completion(job, now),
                int((~self._offline[job.nodes]).sum()),
            )
            for job in self._running.values()
        )
        freed = idle
        for time, width in completions:
            freed += width
            if freed >= head_nodes_needed:
                return time
        return None

    @staticmethod
    def _estimated_completion(job: Job, now: float) -> float:
        """Optimistic completion estimate: remaining work at full speed."""
        return now + job.remaining_work_s

    def _start_out_of_order(self, job: Job, now: float) -> None:
        nodes = self._allocator.try_allocate(job.nprocs, blocked=self._offline)
        if nodes is None:  # raced with another backfill in this pass
            return
        self._queue.remove(job.job_id)
        self._cluster.state.assign_job(nodes, job.job_id)
        job.start(now, nodes)
        self._running[job.job_id] = job
        self._started_count += 1
        self._backfilled_count += 1
        self._feeder.poll(now, self._queue)
