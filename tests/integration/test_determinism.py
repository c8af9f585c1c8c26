"""Determinism guarantees: identical seeds reproduce whole runs bit-for-bit."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import NodeSets, PowerManager, ThresholdController
from repro.core.policies import make_policy
from repro.power import PowerModel, SystemPowerMeter
from repro.scheduler import BatchScheduler, KeepQueueFilledFeeder
from repro.sim import RandomSource
from repro.workload import JobExecutor, RandomJobGenerator


@pytest.fixture(autouse=True)
def _small_jobs(monkeypatch):
    """Small jobs: at most 32 processes each, for the 32-node worlds here."""
    monkeypatch.setattr("repro.workload.generator.PAPER_NPROCS_CHOICES", (8, 16, 32))


def _run_once(seed: int, policy: str):
    rng = RandomSource(seed=seed)
    cluster = Cluster.tianhe_1a(num_nodes=32)
    model = PowerModel(cluster.spec)
    generator = RandomJobGenerator(rng.stream("gen"), runtime_scale=0.01)
    executor = JobExecutor(cluster.state, rng.stream("exec"))
    scheduler = BatchScheduler(cluster, executor, KeepQueueFilledFeeder(generator))

    sets = NodeSets(cluster)
    meter = SystemPowerMeter(model, cluster.state)
    thresholds = ThresholdController.fixed(
        p_low=0.75 * cluster.theoretical_max_power(),
        p_high=0.85 * cluster.theoretical_max_power(),
    )
    manager = PowerManager(cluster, sets, meter, thresholds, make_policy(policy))
    trace = []
    for t in range(1, 301):
        scheduler.tick(float(t), 1.0)
        report = manager.control_cycle(float(t))
        trace.append(
            (report.power_w, report.state.value, report.decision.num_targets)
        )
    finished = [(j.job_id, j.app.name, j.finish_time) for j in scheduler.finished_jobs]
    levels = cluster.state.level.copy()
    return trace, finished, levels


def test_identical_seed_identical_run():
    for policy in ("mpc", "hri", "mpc-c"):
        t1, f1, l1 = _run_once(99, policy)
        t2, f2, l2 = _run_once(99, policy)
        assert t1 == t2
        assert f1 == f2
        np.testing.assert_array_equal(l1, l2)


def test_different_seed_different_run():
    t1, _, _ = _run_once(99, "mpc")
    t2, _, _ = _run_once(100, "mpc")
    assert t1 != t2


def test_job_stream_identical_across_policies():
    """The k-th generated job is the same (app, nprocs) tuple regardless
    of which policy manages power — the controlled-comparison property
    experiment harnesses rely on."""
    _, f_mpc, _ = _run_once(7, "mpc")
    _, f_hri, _ = _run_once(7, "hri")
    by_id_mpc = {j[0]: j[1] for j in f_mpc}
    by_id_hri = {j[0]: j[1] for j in f_hri}
    common = set(by_id_mpc) & set(by_id_hri)
    assert common
    for job_id in common:
        assert by_id_mpc[job_id] == by_id_hri[job_id]
