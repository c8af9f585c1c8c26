"""Queue-filling policies.

Two ways to keep the scheduler supplied with work:

* :class:`KeepQueueFilledFeeder` — the paper's §V.C rule: *"An evaluation
  job is added to the job queue whenever the queue is empty"*, drawing
  from the random generator.  This keeps the machine near saturation and
  produces the open-ended 12-hour streams of the evaluation.
* :class:`ListFeeder` — submits a fixed list of jobs at their submit
  times (a closed workload, used by the scheduler tests).

A feeder exposes one method, ``poll(now, queue)``, called by the scheduler
at the start of every tick, which pushes any arrivals due by ``now``.
"""

from __future__ import annotations

from typing import Protocol

from repro.scheduler.queue import JobQueue
from repro.workload.generator import RandomJobGenerator
from repro.workload.job import Job

__all__ = [
    "Feeder",
    "KeepQueueFilledFeeder",
    "ListFeeder",
]


class Feeder(Protocol):
    """Anything that can top up the job queue each tick."""

    def poll(self, now: float, queue: JobQueue) -> None:
        """Push arrivals due at or before ``now`` into ``queue``."""
        ...  # pragma: no cover - protocol stub

    def exhausted(self) -> bool:
        """Whether no further jobs will ever arrive."""
        ...  # pragma: no cover - protocol stub


class KeepQueueFilledFeeder:
    """The paper's feeder: generate one job whenever the queue is empty."""

    def __init__(self, generator: RandomJobGenerator) -> None:
        self._generator = generator

    def poll(self, now: float, queue: JobQueue) -> None:
        if not queue:
            queue.push(self._generator.next_job(submit_time=now))

    def exhausted(self) -> bool:
        """An open stream never runs dry."""
        return False


class ListFeeder:
    """Submits a fixed list of jobs at their submit times (closed list)."""

    def __init__(self, jobs: list[Job]) -> None:
        self._jobs = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        self._cursor = 0

    def poll(self, now: float, queue: JobQueue) -> None:
        while self._cursor < len(self._jobs):
            job = self._jobs[self._cursor]
            if job.submit_time > now:
                break
            queue.push(job)
            self._cursor += 1

    def exhausted(self) -> bool:
        return self._cursor >= len(self._jobs)
