"""Kernel-level differential test of job stepping: vector against object.

The experiment-level matrix always runs the executor's load jitter,
node noise and load modulation, so it never reaches the zero-σ branches
of the vector kernel's one draw per block, where the draw's layout
changes.  Here Hypothesis drives one scheduler per engine, with
identically seeded executors (jitter and noise constants patched per
example), through the same random churn:
submissions and FCFS starts, finishes, ``suspend_job``, ``resume_job``,
``kill_job`` and DVFS level changes.  The worlds must stay bit-equal:
the cluster state arrays, every job's progress and degraded exposure,
the finish notices and the executor RNG's state.  The first test ticks
both engines; the second advances the vector world in blocks of ticks
(``BatchScheduler.tick_block``) while the object world ticks, and
compares at every block end, over all eight draw layouts.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable
from unittest import mock

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
from repro.scheduler import BatchScheduler, KeepQueueFilledFeeder, ListFeeder
from repro.scheduler.feeder import Feeder
from repro.sim import RandomSource
from repro.units import gib
from repro.workload import (
    NPB_APPLICATIONS,
    Job,
    JobExecutor,
    JobState,
    RandomJobGenerator,
)
from repro.workload.executor import NODE_NOISE_STD, UTIL_JITTER_STD, StepBlock

MODULATION = inspect.signature(JobExecutor).parameters["modulation_std"].default
#: Ids of hand-submitted jobs start here, clear of the generator's.
SUBMITTED_IDS = 1_000_000
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


def _below_top(engine: str) -> Cluster:
    """Every node one level below the top: each job's rate depends on
    its phase, so a block must end where a phase change moves it."""
    cluster = _homogeneous(engine)
    cluster.state.set_levels(np.arange(NUM_NODES), TOP_LEVEL - 1)
    return cluster


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
        modulation: float = MODULATION,
        keep_filled: bool = False,
    ) -> None:
        self.cluster = make_cluster(engine)
        source = RandomSource(seed=seed)
        self.rng = source.stream("workload.executor")
        executor = JobExecutor(
            self.cluster.state,
            self.rng,
            modulation_std=modulation,
            engine=engine,
        )
        feeder: Feeder = ListFeeder([])
        if keep_filled:
            # Short jobs, so blocks end in finishes as well as at the
            # requested length.
            generator = RandomJobGenerator(
                source.stream("workload.generator"), runtime_scale=0.005
            )
            feeder = KeepQueueFilledFeeder(generator)
        self.scheduler = BatchScheduler(self.cluster, executor, feeder)
        self.now = 0.0
        self.submitted = SUBMITTED_IDS

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

    def tick_block(self, dt: float, span: int) -> StepBlock:
        """Up to ``span`` intervals in one ``tick_block`` call."""
        steps = np.full(span + 1, dt)
        steps[0] = self.now
        times = np.add.accumulate(steps)[1:]
        block = self.scheduler.tick_block(times, dt)
        self.now = float(times[block.ticks - 1])
        return block


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


def _load_noise(jitter: float, noise: float) -> Any:
    """The executor's jitter and node noise, patched for one example."""
    return mock.patch.multiple(
        "repro.workload.executor", UTIL_JITTER_STD=jitter, NODE_NOISE_STD=noise
    )


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
@pytest.mark.parametrize("noise", [0.0, NODE_NOISE_STD], ids=["noise0", "noise"])
@pytest.mark.parametrize("jitter", [0.0, UTIL_JITTER_STD], ids=["jitter0", "jitter"])
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
        _World(engine, make_cluster, seed) for engine in ("vector", "object")
    )
    with _load_noise(jitter, noise):
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


#: Rounds of churn, each closed by one block of up to ``span`` ticks.
_BLOCK_ROUNDS = st.lists(
    st.tuples(
        st.lists(_CHURN, max_size=3),
        st.floats(min_value=0.5, max_value=20.0),
        st.integers(min_value=1, max_value=80),
    ),
    min_size=5,
    max_size=25,
)


def _step_block(
    vector: _World, obj: _World, dt: float, span: int, context: str
) -> StepBlock:
    """One block on ``vector``, as many ticks on ``obj``; both must then
    be bit-equal, with every finish in the block's last tick."""
    block = vector.tick_block(dt, span)
    finished: list[Job] = []
    for _ in range(block.ticks):
        finished += obj.tick(dt)
    assert vector.now == obj.now
    notices = [(n.job.job_id, repr(n.finish_time)) for n in block.finished]
    assert notices == _notices(finished), f"{context}: finish notices diverged"
    _assert_bit_equal(vector, obj, context)
    return block


@pytest.mark.parametrize(
    "make_cluster",
    [_homogeneous, _heterogeneous, _below_top],
    ids=["homo", "hetero", "below-top"],
)
@pytest.mark.parametrize("modulation", [0.0, MODULATION], ids=["mod0", "mod"])
@pytest.mark.parametrize("noise", [0.0, NODE_NOISE_STD], ids=["noise0", "noise"])
@pytest.mark.parametrize("jitter", [0.0, UTIL_JITTER_STD], ids=["jitter0", "jitter"])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20), rounds=_BLOCK_ROUNDS)
def test_vector_blocks_match_object_ticks(
    make_cluster: Callable[[str], Cluster],
    jitter: float,
    noise: float,
    modulation: float,
    seed: int,
    rounds: list[tuple[list[tuple[Any, ...]], float, int]],
) -> None:
    vector, obj = (
        _World(engine, make_cluster, seed, modulation, keep_filled=True)
        for engine in ("vector", "object")
    )
    with _load_noise(jitter, noise):
        for step, (churn, dt, span) in enumerate(rounds):
            for action in churn:
                vector.apply(action)
                obj.apply(action)
            context = f"round {step} ({churn}, dt={dt}, span={span})"
            _step_block(vector, obj, dt, span, context)


def _quiet_worlds(make_cluster: Callable[[str], Cluster]) -> tuple[_World, _World]:
    """A vector and an object world, ticked until the scheduler is quiet."""
    worlds = tuple(
        _World(e, make_cluster, 11, MODULATION, keep_filled=True)
        for e in ("vector", "object")
    )
    for _ in range(200):
        if worlds[0].scheduler.quiet():
            break
        for world in worlds:
            world.tick(1.0)
    assert worlds[0].scheduler.quiet()
    return worlds[0], worlds[1]


def test_blocks_end_with_a_finish_or_at_their_length() -> None:
    """Blocks cut by a finish on their last tick, and blocks cut by the
    requested length, each match the object engine ticking."""
    vector, obj = _quiet_worlds(_homogeneous)
    ends = {"finish": 0, "length": 0}
    for step in range(60):
        span = 3 + step % 40
        block = _step_block(vector, obj, 1.0, span, f"block {step}")
        if block.finished:
            ends["finish"] += 1
        elif block.ticks == span:
            ends["length"] += 1
    assert ends["finish"] >= 3 and ends["length"] >= 3


def test_blocks_end_before_a_rate_change() -> None:
    """Below the top level, blocks also end early, with no finish,
    where a phase change moves a job's rate."""
    vector, obj = _quiet_worlds(_below_top)
    rate_cuts = 0
    for step in range(60):
        block = _step_block(vector, obj, 1.0, 80, f"block {step}")
        rate_cuts += not block.finished and block.ticks < 80
    assert rate_cuts >= 3


@given(cycle=st.floats(min_value=1e-3, max_value=1e9))
def test_cycle_position_stays_below_one(cycle: float) -> None:
    """The vector kernel drops ``phase_at``'s ``% 1.0``: even the largest
    remainder, the float just below the cycle length, divides by the
    cycle to a position below 1.0."""
    largest = float(np.nextafter(cycle, 0.0))
    assert (largest % cycle) / cycle < 1.0
