"""Unit tests for Performance(cap) and CPLJ."""

import numpy as np
import pytest

from repro.errors import MetricError
from repro.metrics import (
    count_performance_lossless_jobs,
    per_application_performance,
    performance_metric,
)
from repro.workload import Job, get_application


def _finished_job(job_id=0, app="EP", nprocs=64, stretch=1.0):
    """A finished job whose runtime is nominal × stretch."""
    job = Job(job_id=job_id, app=get_application(app), nprocs=nprocs, submit_time=0.0)
    job.start(0.0, np.array([0]))
    job.finish(job.nominal_runtime_s * stretch)
    return job


def test_performance_lossless_is_one():
    jobs = [_finished_job(i) for i in range(5)]
    assert performance_metric(jobs) == pytest.approx(1.0)


def test_performance_uniform_stretch():
    jobs = [_finished_job(i, stretch=1.25) for i in range(4)]
    assert performance_metric(jobs) == pytest.approx(0.8)


def test_performance_is_mean_of_ratios():
    jobs = [_finished_job(0, stretch=1.0), _finished_job(1, stretch=2.0)]
    assert performance_metric(jobs) == pytest.approx((1.0 + 0.5) / 2)


def test_performance_ignores_unfinished():
    pending = Job(job_id=9, app=get_application("EP"), nprocs=8, submit_time=0.0)
    jobs = [_finished_job(0), pending]
    assert performance_metric(jobs) == pytest.approx(1.0)


def test_performance_empty_raises():
    with pytest.raises(MetricError):
        performance_metric([])
    pending = Job(job_id=9, app=get_application("EP"), nprocs=8, submit_time=0.0)
    with pytest.raises(MetricError):
        performance_metric([pending])


def test_cplj_counts_exact_runtimes():
    jobs = [
        _finished_job(0, stretch=1.0),
        _finished_job(1, stretch=1.0),
        _finished_job(2, stretch=1.1),
    ]
    assert count_performance_lossless_jobs(jobs) == 2


def test_cplj_tolerance():
    jobs = [_finished_job(0, stretch=1.0 + 1e-9)]
    assert count_performance_lossless_jobs(jobs) == 1
    assert count_performance_lossless_jobs(jobs, rel_tolerance=0.0) == 0


def test_cplj_negative_tolerance_rejected():
    with pytest.raises(MetricError):
        count_performance_lossless_jobs([_finished_job(0)], rel_tolerance=-1.0)


def test_per_application_breakdown():
    jobs = [
        _finished_job(0, app="EP", stretch=1.25),
        _finished_job(1, app="EP", stretch=1.25),
        _finished_job(2, app="CG", stretch=1.0),
    ]
    result = per_application_performance(jobs)
    assert result["EP"] == pytest.approx(0.8)
    assert result["CG"] == pytest.approx(1.0)
    assert sorted(result) == ["CG", "EP"]
