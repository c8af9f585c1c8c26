"""The paper's performance metrics: Performance(cap) and CPLJ (§V.C).

``Performance(cap) = (1/J) Σ_j T_j / T_cap,j`` where ``T_j`` is the time
to finish job ``j`` at full node performance without capping and
``T_cap,j`` the measured time under the capping policy.  In this
simulator the uncapped runtime of a job is *exactly* its nominal runtime
(the executor interpolates completions), so ``T_j`` is analytic and no
baseline run is required for the performance metrics — though experiment
harnesses still run baselines for the power metrics.

``CPLJ`` counts finished jobs whose capped runtime equals their uncapped
runtime.  Equality is taken up to a relative tolerance (default 10⁻⁶) to
absorb float accumulation; a job degraded only during frequency-
insensitive phases (β≈0) legitimately counts as lossless — the model
gives it the same runtime either way, matching the paper's observation
that most jobs lose nothing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.errors import MetricError
from repro.workload.job import Job, JobState

__all__ = [
    "performance_metric",
    "count_performance_lossless_jobs",
    "per_application_performance",
]


def _finished(jobs: Iterable[Job]) -> list[Job]:
    done = [j for j in jobs if j.state is JobState.FINISHED]
    if not done:
        raise MetricError("no finished jobs to evaluate")
    return done


def performance_metric(jobs: Sequence[Job]) -> float:
    """``Performance(cap)`` over the finished jobs in ``jobs``.

    1.0 means no performance loss; 0.98 means 2% average loss.

    Raises:
        MetricError: when no job has finished.
    """
    done = _finished(jobs)
    total = 0.0
    for job in done:
        t_cap = job.actual_runtime_s
        if t_cap <= 0:
            raise MetricError(f"job {job.job_id} has non-positive runtime")
        total += job.nominal_runtime_s / t_cap
    return total / len(done)


def count_performance_lossless_jobs(
    jobs: Sequence[Job], rel_tolerance: float = 1e-6
) -> int:
    """CPLJ: finished jobs whose capped runtime equals the uncapped one.

    Args:
        jobs: Jobs to evaluate (non-finished ones are ignored, but at
            least one finished job must exist).
        rel_tolerance: Relative equality tolerance on runtimes.
    """
    if rel_tolerance < 0:
        raise MetricError("rel_tolerance must be non-negative")
    done = _finished(jobs)
    count = 0
    for job in done:
        if job.actual_runtime_s <= job.nominal_runtime_s * (1.0 + rel_tolerance):
            count += 1
    return count


def per_application_performance(jobs: Sequence[Job]) -> dict[str, float]:
    """``Performance(cap)`` broken down by application name.

    Useful for checking the model's DVFS-sensitivity story: EP (compute
    bound) should lose more than CG (memory bound) under equal capping.
    """
    groups: dict[str, list[Job]] = defaultdict(list)
    for job in _finished(jobs):
        groups[job.app.name].append(job)
    return {
        name: performance_metric(group) for name, group in sorted(groups.items())
    }
