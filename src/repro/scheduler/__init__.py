"""Batch scheduler substrate: queue, allocator, feeders and the scheduler.

The paper's evaluation drives its cluster with a minimal batch system
(§V.C): a FIFO queue that is topped up with one random job whenever it
empties, and jobs that start "as soon as the required hardware resource is
available".  This package reproduces that system and nothing more
elaborate — the power-capping architecture is scheduler-agnostic, and the
simple feeder is what produces the near-saturated, spiky load profile the
capping experiments need.

* :mod:`repro.scheduler.queue` — FIFO job queue;
* :mod:`repro.scheduler.allocator` — whole-node first-fit allocation;
* :mod:`repro.scheduler.feeder` — queue-filling policies (§V.C keep-one,
  closed-list);
* :mod:`repro.scheduler.scheduler` — the tick-driven ``BatchScheduler``
  that glues queue, allocator and the job executor together.
"""

from repro.scheduler.allocator import NodeAllocator
from repro.scheduler.backfill import BackfillScheduler
from repro.scheduler.feeder import KeepQueueFilledFeeder, ListFeeder
from repro.scheduler.queue import JobQueue
from repro.scheduler.scheduler import BatchScheduler

__all__ = [
    "BackfillScheduler",
    "BatchScheduler",
    "JobQueue",
    "KeepQueueFilledFeeder",
    "ListFeeder",
    "NodeAllocator",
]
