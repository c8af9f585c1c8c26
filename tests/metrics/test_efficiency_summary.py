"""Unit tests for the run-summary bundle."""

import numpy as np
import pytest

from repro.errors import MetricError
from repro.metrics import RunMetrics, compare_runs
from repro.workload import Job, get_application


# ----------------------------------------------------------------------
# RunMetrics / compare_runs
# ----------------------------------------------------------------------
def _run(label, stretch, peak, overspend_level, threshold=100.0, n_jobs=4):
    jobs = []
    for i in range(n_jobs):
        job = Job(job_id=i, app=get_application("EP"), nprocs=64, submit_time=0.0)
        job.start(0.0, np.array([0]))
        job.finish(job.nominal_runtime_s * stretch)
        jobs.append(job)
    t = np.linspace(0.0, 100.0, 101)
    power = np.full(101, overspend_level)
    power[50] = peak
    return RunMetrics.evaluate(label, t, power, jobs, threshold)


def test_run_metrics_evaluate():
    m = _run("x", stretch=1.0, peak=120.0, overspend_level=90.0)
    assert m.performance == pytest.approx(1.0)
    assert m.cplj == 4
    assert m.finished_jobs == 4
    assert m.cplj_fraction == 1.0
    assert m.p_max_w == 120.0
    assert m.overspend > 0  # the spike exceeds 100
    assert m.energy_j > 0


def test_compare_runs_ratios():
    base = _run("base", 1.0, 150.0, 95.0)
    capped = _run("cap", 1.05, 120.0, 90.0)
    comparison = compare_runs(capped, base)
    assert comparison.p_max_ratio == pytest.approx(120.0 / 150.0)
    assert 0 < comparison.overspend_ratio < 1
    assert comparison.overspend_reduction == pytest.approx(
        1 - comparison.overspend_ratio
    )
    assert comparison.performance == pytest.approx(capped.performance)


def test_compare_runs_threshold_mismatch_rejected():
    base = _run("base", 1.0, 150.0, 95.0, threshold=100.0)
    capped = _run("cap", 1.0, 120.0, 90.0, threshold=200.0)
    with pytest.raises(MetricError):
        compare_runs(capped, base)


def test_compare_runs_zero_baseline_overspend():
    base = _run("base", 1.0, 99.0, 50.0)
    capped = _run("cap", 1.0, 99.0, 50.0)
    assert base.overspend == 0.0
    comparison = compare_runs(capped, base)
    assert comparison.overspend_ratio == 1.0
    assert comparison.overspend_reduction == 0.0


def test_cplj_fraction_no_jobs_raises():
    m = RunMetrics(
        label="x",
        performance=1.0,
        cplj=0,
        finished_jobs=0,
        p_max_w=1.0,
        avg_power_w=1.0,
        energy_j=1.0,
        overspend=0.0,
        threshold_w=1.0,
    )
    with pytest.raises(MetricError):
        _ = m.cplj_fraction
