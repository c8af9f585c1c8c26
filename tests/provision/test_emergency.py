"""Unit tests for the capacity-emergency response ladder."""

import numpy as np
import pytest

from repro.provision import (
    EmergencyResponse,
    PowerTopology,
    ProvisionRuntime,
    ProvisionScenario,
)
from repro.provision import emergency
from repro.provision import runtime as delivery_runtime
from repro.provision.emergency import (
    RUNG_CAP,
    RUNG_NORMAL,
    RUNG_SHED,
    RUNG_SUSPEND,
)
from repro.scheduler import BatchScheduler, ListFeeder
from repro.sim import RandomSource
from repro.workload import Job, JobExecutor, JobState, executor, get_application

#: Procs per Tianhe-1A node (two hexacore Xeons).
PROCS_PER_NODE = 12


def _job(job_id, nodes=1, priority=0):
    return Job(
        job_id=job_id,
        app=get_application("EP"),
        nprocs=nodes * PROCS_PER_NODE,
        submit_time=0.0,
        priority=priority,
    )


def _scheduler(cluster, jobs):
    jobs_executor = JobExecutor(
        cluster.state, RandomSource(seed=3).stream("exec"), modulation_std=0.0
    )
    sched = BatchScheduler(cluster, jobs_executor, ListFeeder(jobs))
    sched.tick(1.0, 1.0)
    return sched


#: A quicker ladder than the production one, so a test climbs and
#: descends it in a few cycles.
QUICK_LADDER = {
    "ESCALATE_AFTER_CYCLES": 2,
    "RECOVER_AFTER_CYCLES": 2,
    "RECOVER_FRACTION": 0.9,
    "MAX_SUSPEND_FRACTION": 0.5,
}


@pytest.fixture(autouse=True)
def _quick_ladder(monkeypatch):
    for name, value in QUICK_LADDER.items():
        monkeypatch.setattr(emergency, name, value)


@pytest.fixture(autouse=True)
def _noiseless_load(monkeypatch):
    """Every test here steps jobs on noiseless load: the executor's
    jitter and node noise are patched to 0 for the test."""
    monkeypatch.setattr(executor, "UTIL_JITTER_STD", 0.0)
    monkeypatch.setattr(executor, "NODE_NOISE_STD", 0.0)


def _response(cluster, sched=None, scenario=None, candidate_mask=None):
    topo = PowerTopology(
        feed_capacities_w=(600.0, 400.0),
        branch_rated_w=300.0,
        nodes_per_rack=4,
        num_nodes=cluster.state.num_nodes,
    )
    runtime = ProvisionRuntime(topo, scenario or ProvisionScenario())
    return EmergencyResponse(runtime, sched, candidate_mask), runtime


# ----------------------------------------------------------------------
# Forcing red
# ----------------------------------------------------------------------
def test_undefended_response_never_forces_red(small_cluster):
    emr, runtime = _response(small_cluster, scenario=ProvisionScenario(defend=False))
    assert not runtime.scenario.defend
    assert emr.update(0.0, 5000.0) is False
    assert emr.emergency_red_cycles == 0


def test_over_capacity_forces_red(small_cluster):
    emr, _ = _response(small_cluster)
    assert emr.update(0.0, 1500.0) is True  # capacity is 1000 W
    assert emr.emergency_red_cycles == 1
    assert emr.rung == RUNG_CAP


def test_within_capacity_does_not_force_red(small_cluster):
    emr, _ = _response(small_cluster)
    assert emr.update(0.0, 800.0) is False
    assert emr.rung == RUNG_NORMAL


def test_envelope_none_on_total_blackout(small_cluster, monkeypatch):
    monkeypatch.setattr(delivery_runtime, "FEED_LOSS_COUNT", 2)
    emr, runtime = _response(
        small_cluster, scenario=ProvisionScenario(feed_loss_at_cycle=0)
    )
    assert emr.envelope_w() == 1000.0
    runtime.begin_cycle(0.0)
    assert emr.envelope_w() is None


# ----------------------------------------------------------------------
# The ladder
# ----------------------------------------------------------------------
def test_escalation_suspends_lowest_priority_latest_job(small_cluster):
    jobs = [_job(0, priority=1), _job(1, priority=0), _job(2, priority=0)]
    sched = _scheduler(small_cluster, jobs)
    emr, _ = _response(small_cluster, sched)
    emr.update(10.0, 1500.0)
    assert emr.jobs_suspended == 0  # streak 1 < escalate_after 2
    emr.update(20.0, 1500.0)
    assert emr.jobs_suspended == 1
    # Lowest priority wins; among equals the latest-started (highest id).
    assert sched.running_job(2).state is JobState.SUSPENDED
    assert sched.running_job(0).state is JobState.RUNNING
    assert emr.rung == RUNG_SUSPEND


def test_suspend_budget_bounds_the_ladder(small_cluster):
    jobs = [_job(0), _job(1), _job(2)]
    sched = _scheduler(small_cluster, jobs)
    emr, _ = _response(small_cluster, sched)
    for cycle in range(2, 6):
        emr.update(cycle * 10.0, 1500.0)
    # max_suspend_fraction 0.5 of 3 active jobs floors to 1.
    assert emr.jobs_suspended == 1


def test_shedding_takes_idle_candidates_offline(small_cluster):
    sched = _scheduler(small_cluster, [_job(0)])
    emr, _ = _response(small_cluster, sched)
    # Budget: int(0.5 * 1) = 0 suspensions, so past 2x escalate_after the
    # ladder sheds one rack's worth of idle candidate nodes per over
    # cycle; four cycles reach exactly the first batch.
    for cycle in range(4):
        emr.update(cycle * 10.0, 1500.0)
    assert emr.jobs_suspended == 0
    assert emr.nodes_shed == 4  # one nodes_per_rack batch
    assert emr.rung == RUNG_SHED
    assert sched.offline_mask.sum() == 4
    # The occupied node (job 0) was never shed.
    assert not sched.offline_mask[sched.running_job(0).nodes].any()


def test_recovery_descends_one_rung_per_cycle(small_cluster):
    jobs = [_job(0), _job(1), _job(2)]
    sched = _scheduler(small_cluster, jobs)
    emr, _ = _response(small_cluster, sched)
    for cycle in range(4):  # deep escalation: suspend, then one shed batch
        emr.update(cycle * 10.0, 1500.0)
    assert emr.jobs_suspended == 1
    assert emr.nodes_shed == 4
    assert emr.rung == RUNG_SHED
    # Comfortably inside capacity: recover_after 2, then one undo/cycle.
    emr.update(80.0, 500.0)
    assert emr.nodes_readmitted == 0
    emr.update(90.0, 500.0)
    assert emr.nodes_readmitted == emr.nodes_shed  # shed batch first
    assert emr.rung == RUNG_SUSPEND
    emr.update(100.0, 500.0)
    assert emr.jobs_resumed == 1
    assert sched.running_job(2).state is JobState.RUNNING
    assert emr.rung == RUNG_NORMAL


def test_middling_draw_holds_position(small_cluster):
    sched = _scheduler(small_cluster, [_job(0), _job(1), _job(2)])
    emr, _ = _response(small_cluster, sched)
    emr.update(0.0, 1500.0)
    emr.update(10.0, 1500.0)
    assert emr.rung == RUNG_SUSPEND
    # Inside capacity but above the recovery band: nothing moves.
    for cycle in range(10):
        emr.update(100.0 + cycle * 10.0, 950.0)
    assert emr.jobs_resumed == 0
    assert emr.rung == RUNG_SUSPEND


# ----------------------------------------------------------------------
# Branch capping
# ----------------------------------------------------------------------
def test_branch_targets_step_hot_rack_candidates_down(small_cluster):
    emr, _ = _response(small_cluster)
    levels = np.full(16, 3, dtype=np.int64)
    levels[1] = 0  # already at the floor: not a target
    power = np.concatenate([np.full(4, 80.0), np.full(12, 10.0)])
    ids, new_levels = emr.branch_targets(levels, power)
    np.testing.assert_array_equal(ids, [0, 2, 3])
    np.testing.assert_array_equal(new_levels, [2, 2, 2])
    assert emr.branch_cap_interventions == 1


def test_branch_targets_respect_candidate_mask(small_cluster):
    mask = np.ones(16, dtype=bool)
    mask[:4] = False  # the hot rack is privileged
    emr, _ = _response(small_cluster, candidate_mask=mask)
    levels = np.full(16, 3, dtype=np.int64)
    power = np.concatenate([np.full(4, 80.0), np.full(12, 10.0)])
    ids, _ = emr.branch_targets(levels, power)
    assert len(ids) == 0
    assert emr.branch_cap_interventions == 0


def test_branch_targets_quiet_when_cool(small_cluster):
    emr, _ = _response(small_cluster)
    ids, new_levels = emr.branch_targets(
        np.full(16, 3, dtype=np.int64), np.full(16, 10.0)
    )
    assert len(ids) == 0 and len(new_levels) == 0


# ----------------------------------------------------------------------
# Blackout handling
# ----------------------------------------------------------------------
def test_handle_trips_kills_jobs_and_offlines_the_rack(small_cluster):
    sched = _scheduler(small_cluster, [_job(0, nodes=2), _job(1)])
    emr, _ = _response(small_cluster, sched)
    # Job 0 occupies nodes 0-1 on rack 0; job 1 node 2.
    dark = emr.handle_trips(np.array([0]), 50.0)
    np.testing.assert_array_equal(dark, [0, 1, 2, 3])
    assert emr.jobs_killed == 2
    assert [j.job_id for j in sched.killed_jobs] == [0, 1]
    assert sched.offline_mask[:4].all()


def test_handle_trips_empty_is_noop(small_cluster):
    sched = _scheduler(small_cluster, [_job(0)])
    emr, _ = _response(small_cluster, sched)
    dark = emr.handle_trips(np.empty(0, dtype=np.int64), 50.0)
    assert len(dark) == 0
    assert emr.jobs_killed == 0
