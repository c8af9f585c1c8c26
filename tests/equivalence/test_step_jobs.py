"""Kernel-level differential test of job stepping: vector against object.

The experiment-level matrix always runs the default load jitter and node
noise, so it never reaches the zero-σ branches of the vector kernel's
one draw per tick, where the draw's layout changes.  Here Hypothesis
drives one scheduler per engine, with identically seeded executors,
through the same random churn: submissions and FCFS starts, finishes,
``suspend_job``, ``resume_job``, ``kill_job`` and DVFS level changes.
After every tick the two worlds must be bit-equal: the cluster state
arrays, every job's progress and degraded exposure, the finish notices
and the executor RNG's state.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    DvfsTable,
    MemorySpec,
    NicSpec,
    NodeSpec,
    ProcessorSpec,
)
from repro.scheduler import BatchScheduler, ListFeeder
from repro.sim import RandomSource
from repro.units import gib
from repro.workload import NPB_APPLICATIONS, Job, JobExecutor, JobState

_DEFAULTS = inspect.signature(JobExecutor).parameters
JITTER = _DEFAULTS["util_jitter_std"].default
NOISE = _DEFAULTS["node_noise_std"].default
NUM_NODES = 24
TOP_LEVEL = NodeSpec.tianhe_1a().top_level


def _homogeneous(engine: str) -> Cluster:
    return Cluster.tianhe_1a(NUM_NODES, engine=engine)


def _heterogeneous(engine: str) -> Cluster:
    """Half Tianhe blades, half a slower SKU with the same ladder depth,
    so one job's bottleneck speed can come from either node type."""
    cpu = ProcessorSpec(
        name="lp-sku",
        cores=6,
        dvfs=DvfsTable.linear(TOP_LEVEL + 1, 1.2e9, 2.2e9),
        max_power_w=60.0,
        idle_power_top_w=20.0,
        idle_power_bottom_w=12.0,
    )
    slow = NodeSpec(
        processor=cpu,
        sockets=2,
        memory=MemorySpec(8, gib(4), 2.5, 1.2),
        nic=NicSpec(10e9, 10.0, 6.0),
        board_power_w=50.0,
    )
    half = NUM_NODES // 2
    return Cluster.heterogeneous(
        [(NodeSpec.tianhe_1a(), half), (slow, half)], engine=engine
    )


#: Which active jobs each power-emergency transition may pick from.
_ELIGIBLE = {
    "suspend": (JobState.RUNNING,),
    "resume": (JobState.SUSPENDED,),
    "kill": (JobState.RUNNING, JobState.SUSPENDED),
}

_CHURN = st.one_of(
    st.tuples(
        st.just("submit"),
        st.sampled_from(sorted(NPB_APPLICATIONS)),
        st.sampled_from([8, 16, 32, 64, 128, 256]),
    ),
    st.tuples(
        st.just("level"),
        st.integers(0, NUM_NODES - 1),
        st.integers(0, TOP_LEVEL),
    ),
    st.tuples(st.sampled_from(sorted(_ELIGIBLE)), st.integers(0, 64)),
)
#: Rounds of up to four churn actions, each round closed by one tick of
#: a random length (long enough that jobs finish within a few rounds).
_ROUNDS = st.lists(
    st.tuples(
        st.lists(_CHURN, max_size=4),
        st.floats(min_value=0.5, max_value=300.0),
    ),
    min_size=10,
    max_size=40,
)


class _World:
    """One engine's cluster, executor and scheduler."""

    def __init__(
        self,
        engine: str,
        make_cluster: Callable[[str], Cluster],
        seed: int,
        jitter: float,
        noise: float,
    ) -> None:
        self.cluster = make_cluster(engine)
        self.rng = RandomSource(seed=seed).stream("workload.executor")
        executor = JobExecutor(
            self.cluster.state,
            self.rng,
            util_jitter_std=jitter,
            node_noise_std=noise,
            engine=engine,
        )
        self.scheduler = BatchScheduler(self.cluster, executor, ListFeeder([]))
        self.now = 0.0
        self.submitted = 0

    def apply(self, action: tuple[Any, ...]) -> None:
        """Carry out one churn action."""
        sched = self.scheduler
        kind = action[0]
        if kind == "submit":
            app, nprocs = NPB_APPLICATIONS[action[1]], action[2]
            sched.queue.push(Job(self.submitted, app, nprocs, submit_time=self.now))
            self.submitted += 1
        elif kind == "level":
            self.cluster.state.set_level(action[1], action[2])
        else:
            pool = [j for j in sched.running_jobs if j.state in _ELIGIBLE[kind]]
            if pool:
                job_id = pool[action[1] % len(pool)].job_id
                getattr(sched, f"{kind}_job")(job_id, self.now)

    def tick(self, dt: float) -> list[Job]:
        """One scheduling interval; returns the jobs it finished."""
        self.now += dt
        return self.scheduler.tick(self.now, dt)


def _jobs_view(world: _World) -> list[tuple[Any, ...]]:
    return [
        (
            job.job_id,
            job.state,
            repr(job.progress_s),
            repr(job.degraded_exposure_s),
            repr(job.finish_time),
        )
        for job in world.scheduler.all_jobs()
    ]


def _notices(finished: list[Job]) -> list[tuple[int, str]]:
    return [(job.job_id, repr(job.finish_time)) for job in finished]


def _assert_bit_equal(vector: _World, obj: _World, context: str) -> None:
    for name in ("level", "cpu_util", "mem_frac", "nic_frac", "job_id"):
        a = getattr(vector.cluster.state, name)
        b = getattr(obj.cluster.state, name)
        assert a.tobytes() == b.tobytes(), f"{context}: state.{name} diverged"
    assert _jobs_view(vector) == _jobs_view(obj), f"{context}: jobs diverged"
    assert vector.rng.bit_generator.state == obj.rng.bit_generator.state, (
        f"{context}: RNG stream diverged"
    )


@pytest.mark.parametrize(
    "make_cluster", [_homogeneous, _heterogeneous], ids=["homo", "hetero"]
)
@pytest.mark.parametrize("noise", [0.0, NOISE], ids=["noise0", "noise"])
@pytest.mark.parametrize("jitter", [0.0, JITTER], ids=["jitter0", "jitter"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20), rounds=_ROUNDS)
def test_vector_kernel_matches_object_tick_by_tick(
    make_cluster: Callable[[str], Cluster],
    jitter: float,
    noise: float,
    seed: int,
    rounds: list[tuple[list[tuple[Any, ...]], float]],
) -> None:
    vector, obj = (
        _World(engine, make_cluster, seed, jitter, noise)
        for engine in ("vector", "object")
    )
    for step, (churn, dt) in enumerate(rounds):
        for action in churn:
            vector.apply(action)
            obj.apply(action)
        finished = vector.tick(dt), obj.tick(dt)
        context = f"round {step} ({churn}, dt={dt})"
        assert _notices(finished[0]) == _notices(finished[1]), (
            f"{context}: finish notices diverged"
        )
        _assert_bit_equal(vector, obj, context)


@given(cycle=st.floats(min_value=1e-3, max_value=1e9))
def test_cycle_position_stays_below_one(cycle: float) -> None:
    """The vector kernel drops ``phase_at``'s ``% 1.0``: even the largest
    remainder, the float just below the cycle length, divides by the
    cycle to a position below 1.0."""
    largest = float(np.nextafter(cycle, 0.0))
    assert (largest % cycle) / cycle < 1.0
