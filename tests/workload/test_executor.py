"""Unit tests for the job executor (per-tick and block advancement)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim import RandomSource
from repro.workload import (
    ApplicationProfile,
    Job,
    JobExecutor,
    PhaseSchedule,
    get_application,
)


def _executor(cluster, deterministic=True, **kwargs):
    rng = RandomSource(seed=3).stream("exec")
    if deterministic:
        kwargs.setdefault("util_jitter_std", 0.0)
        kwargs.setdefault("node_noise_std", 0.0)
        kwargs.setdefault("modulation_std", 0.0)
    return JobExecutor(cluster.state, rng, **kwargs)


def _start_job(cluster, nodes, app="EP", nprocs=64, job_id=0, t=0.0):
    job = Job(job_id=job_id, app=get_application(app), nprocs=nprocs, submit_time=0.0)
    cluster.state.assign_job(nodes, job_id)
    job.start(t, nodes)
    return job


def test_progress_at_full_speed(small_cluster):
    ex = _executor(small_cluster)
    job = _start_job(small_cluster, np.arange(4))
    ex.advance([job], now=0.0, dt=1.0)
    assert job.progress_s == pytest.approx(1.0)
    assert job.degraded_exposure_s == 0.0


def test_load_written_to_state(small_cluster):
    ex = _executor(small_cluster)
    job = _start_job(small_cluster, np.arange(4), app="EP")
    ex.advance([job], now=0.0, dt=1.0)
    phase = job.app.schedule.phase_at(job.cycle_position)
    np.testing.assert_allclose(small_cluster.state.cpu_util[:4], phase.cpu_util)
    np.testing.assert_allclose(small_cluster.state.nic_frac[:4], phase.nic_frac)


def test_degraded_node_slows_whole_job(small_cluster):
    ex = _executor(small_cluster)
    job = _start_job(small_cluster, np.arange(4), app="EP")
    small_cluster.state.set_level(0, 0)  # one slow node
    ex.advance([job], now=0.0, dt=1.0)
    speed0 = small_cluster.spec.dvfs.speed(0)
    phase = job.app.schedule.phase_at(0.0)
    beta = phase.compute_boundness
    expected = 1.0 / ((1 - beta) + beta / speed0)
    assert job.progress_s == pytest.approx(expected)
    assert job.degraded_exposure_s == pytest.approx(1.0)


def test_degrading_all_nodes_same_as_one(small_cluster):
    ex = _executor(small_cluster)
    job_a = _start_job(small_cluster, np.arange(0, 4), job_id=0)
    job_b = _start_job(small_cluster, np.arange(4, 8), job_id=1)
    small_cluster.state.set_level(0, 3)
    small_cluster.state.set_levels(np.arange(4, 8), 3)
    ex.advance([job_a, job_b], now=0.0, dt=1.0)
    assert job_a.progress_s == pytest.approx(job_b.progress_s)


def test_completion_interpolated_exactly(small_cluster):
    """An uncapped job's measured runtime equals its nominal runtime."""
    ex = _executor(small_cluster)
    job = _start_job(small_cluster, np.arange(4))
    nominal = job.nominal_runtime_s
    job.progress_s = nominal - 0.25  # quarter of a second of work left
    notices = ex.advance([job], now=100.0, dt=1.0).finished
    assert len(notices) == 1
    assert notices[0].finish_time == pytest.approx(100.25)
    assert job.remaining_work_s == 0.0


def test_completion_not_issued_twice(small_cluster):
    ex = _executor(small_cluster)
    job = _start_job(small_cluster, np.arange(4))
    job.progress_s = job.nominal_runtime_s - 0.5
    notices = ex.advance([job], now=0.0, dt=1.0).finished
    assert len(notices) == 1
    job.finish(notices[0].finish_time)
    # Finished jobs are skipped on later ticks.
    assert ex.advance([job], now=1.0, dt=1.0).finished == []


def test_non_running_jobs_skipped(small_cluster):
    ex = _executor(small_cluster)
    pending = Job(job_id=5, app=get_application("EP"), nprocs=8, submit_time=0.0)
    assert ex.advance([pending], now=0.0, dt=1.0).finished == []
    assert pending.progress_s == 0.0


def test_memory_ramp(small_cluster):
    ex = _executor(small_cluster)
    job = _start_job(small_cluster, np.arange(4), app="CG")
    ramp = job.app.mem_ramp_s
    ex.advance([job], now=0.0, dt=1.0)
    early = small_cluster.state.mem_frac[0]
    ex.advance([job], now=ramp * 2, dt=1.0)
    late = small_cluster.state.mem_frac[0]
    assert early < late
    assert late == pytest.approx(job.app.mem_fraction)


def test_invalid_dt_rejected(small_cluster):
    ex = _executor(small_cluster)
    with pytest.raises(WorkloadError):
        ex.advance([], now=0.0, dt=0.0)


def test_invalid_jitter_rejected(small_cluster):
    rng = RandomSource(seed=1).stream("x")
    with pytest.raises(WorkloadError):
        JobExecutor(small_cluster.state, rng, util_jitter_std=-0.1)
    with pytest.raises(WorkloadError):
        JobExecutor(small_cluster.state, rng, modulation_std=-0.1)
    with pytest.raises(WorkloadError):
        JobExecutor(small_cluster.state, rng, modulation_tau_s=0.0)


def test_modulation_factor_fluctuates_and_is_bounded(small_cluster):
    ex = _executor(small_cluster, deterministic=False, modulation_std=0.2)
    job = _start_job(small_cluster, np.arange(4))
    factors = []
    for t in range(200):
        ex.advance([job], now=float(t), dt=1.0)
        factors.append(ex.modulation_factor)
    arr = np.asarray(factors)
    assert arr.std() > 0.01
    assert np.all(arr >= 0.55) and np.all(arr <= 1.45)


def test_zero_modulation_keeps_factor_one(small_cluster):
    ex = _executor(small_cluster)
    job = _start_job(small_cluster, np.arange(4))
    ex.advance([job], now=0.0, dt=1.0)
    assert ex.modulation_factor == pytest.approx(1.0)


def test_phase_progression_changes_load(small_cluster):
    """As progress crosses phase boundaries the written load changes."""
    ex = _executor(small_cluster)
    job = _start_job(small_cluster, np.arange(4), app="SP", nprocs=64)
    seen_utils = set()
    total_cycles = int(job.nominal_runtime_s)
    for t in range(min(total_cycles - 1, 400)):
        ex.advance([job], now=float(t), dt=1.0)
        seen_utils.add(round(float(small_cluster.state.cpu_util[0]), 3))
    assert len(seen_utils) >= 2  # solve and exchange phases both seen


@pytest.mark.parametrize("engine, expect_calls", [("vector", False), ("object", True)])
def test_steady_ticks_skip_runtime_and_phase_lookups(
    small_cluster, monkeypatch, engine, expect_calls
):
    """Between job state changes the vector engine steps from the
    executor's cached running-job table: no ``nominal_runtime`` and no
    ``phase_at`` calls.  The object engine, which re-derives both every
    tick, shows the counter works."""
    ex = _executor(small_cluster, deterministic=False, engine=engine)
    jobs = [
        _start_job(small_cluster, np.arange(0, 4), app="EP", job_id=0),
        _start_job(small_cluster, np.arange(4, 10), app="CG", job_id=1),
    ]
    ex.advance(jobs, now=0.0, dt=1.0)  # the table is built here
    calls = []
    for owner, name in (
        (ApplicationProfile, "nominal_runtime"),
        (PhaseSchedule, "phase_at"),
    ):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    for t in range(1, 50):
        assert ex.advance(jobs, now=float(t), dt=1.0).finished == []
    assert bool(calls) is expect_calls


def _block_starts(first: float, ticks: int) -> np.ndarray:
    """Start times of ``ticks`` one-second ticks, summed one at a time."""
    return np.add.accumulate(np.r_[first, np.ones(ticks - 1)])


def test_block_ends_with_the_first_finish(small_cluster):
    ex = _executor(small_cluster, engine="vector")
    job = _start_job(small_cluster, np.arange(4))
    job.progress_s = job.nominal_runtime_s - 10.5
    block = ex.advance([job], now=_block_starts(0.0, 64), dt=1.0)
    assert block.ticks == 11
    assert [n.job for n in block.finished] == [job]
    assert block.finished[0].finish_time == pytest.approx(10.5)
    assert block.cpu_util.shape == (11, 4)


def test_block_runs_to_its_last_tick_without_a_finish(small_cluster):
    ex = _executor(small_cluster, engine="vector")
    job = _start_job(small_cluster, np.arange(4))
    block = ex.advance([job], now=_block_starts(0.0, 20), dt=1.0)
    assert (block.ticks, block.finished) == (20, [])
    assert job.progress_s == 20.0
    np.testing.assert_array_equal(small_cluster.state.cpu_util[:4], block.cpu_util[-1])


def test_block_ends_before_the_rate_changes(small_cluster):
    """Below the top level a job's rate depends on its phase's
    compute-boundness, so a phase change ends the block early."""
    ex = _executor(small_cluster, engine="vector")
    job = _start_job(small_cluster, np.arange(4), app="SP", nprocs=64)
    small_cluster.state.set_levels(np.arange(4), 2)
    done = 0
    cuts = 0
    while done < 400:
        block = ex.advance([job], now=_block_starts(float(done), 64), dt=1.0)
        assert block.finished == []
        cuts += block.ticks < 64
        done += block.ticks
    assert cuts >= 2
    assert job.degraded_exposure_s == float(done)


def test_object_engine_steps_one_tick_per_call(small_cluster):
    ex = _executor(small_cluster, engine="object")
    job = _start_job(small_cluster, np.arange(4))
    block = ex.advance([job], now=_block_starts(0.0, 8), dt=1.0)
    assert block.ticks == 1
    assert job.progress_s == 1.0


def test_running_job_table_cycle_lengths_are_the_jobs_own(small_cluster):
    """The table derives each cycle length from the nominal runtime it
    read once, by the expression ``Job.cycle_length_s`` uses: bit for
    bit the property's value, for runtimes on both sides of the cap."""
    from repro.workload.executor import RunningJobTable

    jobs = [
        _start_job(small_cluster, [k], app=app, nprocs=nprocs, job_id=k)
        for k, (app, nprocs) in enumerate(
            [("EP", 1), ("EP", 64), ("CG", 8), ("BT", 128), ("LU", 16)]
        )
    ]
    table = RunningJobTable(jobs)
    expected = np.array([job.cycle_length_s for job in jobs])
    assert table.cycle.tobytes() == expected.tobytes()
    assert {job.cycle_length_s == 120.0 for job in jobs} == {True, False}
