"""Advances running jobs tick by tick and drives the cluster state.

# reprolint: hot-path

The executor is the bridge between the workload models and the machine
model.  Each tick (``dt`` seconds, normally the telemetry/control
interval τ) every running job:

1. looks up its current :class:`~repro.workload.phases.Phase` from its
   progress (work-domain phases);
2. computes its progress rate from the DVFS levels of its nodes — the
   bulk-synchronous bottleneck model of :mod:`repro.workload`;
3. advances ``progress_s`` by ``rate · dt`` and detects completion, with
   sub-tick interpolation of the finish instant so an uncapped job's
   measured runtime equals its nominal runtime *exactly* (the CPLJ metric
   depends on that exactness);
4. writes the phase's CPU/NIC signature (with small multiplicative
   jitter, shared across the job's nodes plus per-node noise) and the
   ramping memory footprint into the structure-of-arrays cluster state.

Before the jobs move, the cluster-wide :class:`LoadModulation` takes
its own step.

The stepping itself is delegated to a
:class:`~repro.cluster.engine.ClusterEngine`.  One call may cover a
block of consecutive ticks (:meth:`JobExecutor.advance` takes one start
time per tick) and reports what it did as a :class:`StepBlock`.  The
vector engine does all four steps for every running job and every tick
of the block at once, as array work over a :class:`RunningJobTable`:
the per-job constants (nominal runtime, cycle length, phase rows, memory
ramp, node layout), which the executor builds once per distinct ordered
set of running jobs and reuses until a job starts, finishes, is
suspended, resumed or killed.  It ends a block after the first tick in
which a job finishes, or before the first tick whose progress rates
would differ from the first tick's.  The object engine steps one tick
per call and re-derives everything job by job and node by node.  Both
consume the executor's RNG stream identically, so the engines are
interchangeable bit for bit.

Power consumption itself is *not* computed here — the power model reads
the state this executor wrote, keeping workload and power strictly
layered.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.cluster.engine import ClusterEngine, get_engine
from repro.cluster.state import ClusterState
from repro.errors import WorkloadError
from repro.workload.job import Job, JobState, cycle_length
from repro.workload.phases import PhaseSchedule

__all__ = [
    "JobExecutor",
    "FinishedJob",
    "LoadModulation",
    "RunningJobTable",
    "StepBlock",
]

#: Std-dev of the multiplicative per-tick jitter on a phase's CPU/NIC
#: signature, shared by all nodes of a job (phases are synchronous).
UTIL_JITTER_STD = 0.04
#: Std-dev of the additional per-node multiplicative noise (load
#: imbalance).
NODE_NOISE_STD = 0.02


@dataclass(frozen=True)
class FinishedJob:
    """A completion notice: which job, and the exact finish instant."""

    job: Job
    finish_time: float


class StepBlock(NamedTuple):
    """What one call of the job-stepping kernel did.

    ``ticks`` consecutive ticks (at least one) of every running job;
    ``finished`` holds the completion notices, which only the last tick
    can carry.  ``cpu_util``, ``mem_frac`` and ``nic_frac`` are
    ``(ticks, m)``: the load each tick wrote to ``node_ids`` (every
    running job's nodes, in table order), clipped to [0, 1] as the
    cluster state holds it.  The state is left with the last tick's load.
    """

    ticks: int
    finished: list[FinishedJob]
    node_ids: np.ndarray
    cpu_util: np.ndarray
    mem_frac: np.ndarray
    nic_frac: np.ndarray


class LoadModulation:
    """The cluster-wide AR(1) load multiplier shared by every job.

    Each tick the zero-mean state steps ``x ← ρ·x + √(1−ρ²)·σ·z`` with
    ``ρ = exp(−dt/τ)`` and ``z`` one standard-normal draw; the
    multiplier is ``1 + x`` clamped to [0.55, 1.45].  With ``σ = 0``
    nothing is drawn and the multiplier stays 1.0.

    Args:
        std: Stationary std-dev ``σ``.
        tau_s: Correlation time ``τ``, seconds.
    """

    def __init__(self, std: float, tau_s: float) -> None:
        self.std = std
        self.tau_s = tau_s
        self.value = 0.0

    @property
    def drawn(self) -> bool:
        """Whether each tick consumes a draw."""
        return self.std != 0.0

    @property
    def factor(self) -> float:
        """The current multiplier (≈ 1.0 on average)."""
        return min(1.45, max(0.55, 1.0 + self.value))

    def step(self, dt: float, rng: np.random.Generator) -> float:
        """One tick, drawing its innovation as ``rng.normal(0, σ)``;
        returns the new multiplier."""
        if self.drawn:
            rho = float(np.exp(-dt / self.tau_s))
            innovation = rng.normal(0.0, self.std)
            self.value = rho * self.value + (1.0 - rho * rho) ** 0.5 * innovation
        return self.factor

    def advance(self, dt: float, z: np.ndarray) -> list[float]:
        """One tick per standard-normal draw in ``z``; returns each
        tick's multiplier.  ``σ·z`` is the ``normal(0, σ)`` draw bit for
        bit (``tests/equivalence/test_block_numpy.py`` pins it), and the
        recurrence runs tick by tick, in the float operations of
        :meth:`step`."""
        rho = float(np.exp(-dt / self.tau_s))
        gain = (1.0 - rho * rho) ** 0.5
        value = self.value
        factors: list[float] = []
        for innovation in (self.std * z).tolist():
            value = rho * value + gain * innovation
            factors.append(min(1.45, max(0.55, 1.0 + value)))
        self.value = value
        return factors


class RunningJobTable:
    """What cannot change while a job runs, for an ordered set of running
    jobs, as arrays.

    ``progress_s`` and ``degraded_exposure_s`` are deliberately not
    columns: :class:`~repro.workload.job.Job` stays their only record,
    so nothing here can go stale while the jobs advance.  With ``n``
    jobs, ``m`` nodes in total and ``w`` phases in the widest schedule
    present:

    * ``nominal``, ``cycle`` — ``(n,)`` nominal runtime and phase-cycle
      length, read once through the :class:`Job` properties so the bits
      match theirs;
    * ``inner_bounds`` — ``(w-1, n)`` each job's phase boundaries
      without the final 1.0, one column per job, padded with ``inf``:
      the count of a column's entries ``<=`` the job's cycle position is
      the index ``PhaseSchedule.phase_at`` picks;
    * ``signature`` — ``(3, apps·w)`` β, CPU and NIC of every phase, one
      ``w``-wide block per schedule; ``phase_base`` — ``(n,)`` each
      job's block start;
    * ``mem_fraction``, ``ramp_s``, ``ramp_from`` — ``(n,)`` the memory
      footprint, its ramp and the time it starts from: the job's start
      time, or ``-inf`` with a ramp of 1.0 where there is none, so that
      ``min(1, (t - ramp_from) / ramp_s)`` is 1.0 from the start;
    * ``node_ids`` — ``(m,)`` every job's nodes, concatenated in job
      order; ``offsets`` — ``(n,)`` each job's first entry;
      ``node_job`` — ``(m,)`` the job index of each entry.

    The table also keeps where each job's jitter and each node's noise
    sit in a tick's row of the one random draw (see :meth:`draw`), and
    the std-dev of each of those slots.
    """

    def __init__(self, jobs: list[Job]) -> None:
        self.jobs = jobs
        n = len(jobs)
        # Read through the Job properties once, so the bits match theirs
        # (the cycle length by ``Job.cycle_length_s``'s own expression).
        scalars = np.array(
            [
                (
                    job.nominal_runtime_s,
                    job.app.mem_fraction,
                    job.app.mem_ramp_s,
                    job.start_time,
                )
                for job in jobs
            ],
            dtype=float,
        )
        self.nominal, self.mem_fraction, ramp, start = np.ascontiguousarray(
            scalars.T
        )
        self.cycle = cycle_length(self.nominal)
        ramped = ramp > 0
        self.ramp_s = np.where(ramped, ramp, 1.0)
        self.ramp_from = np.where(ramped, start, -np.inf)

        # One block per distinct schedule, numbered in order of first use.
        blocks: dict[PhaseSchedule, int] = {}
        block = np.array(
            [blocks.setdefault(job.app.schedule, len(blocks)) for job in jobs],
            dtype=np.int64,
        )
        width = max(map(len, blocks))
        inner = np.full((width - 1, len(blocks)), np.inf)
        signature = np.zeros((3, len(blocks), width))
        for b, schedule in enumerate(blocks):
            k = len(schedule)
            inner[: k - 1, b] = schedule.boundaries[:-1]
            signature[:, b, :k] = np.array(
                [(p.compute_boundness, p.cpu_util, p.nic_frac) for p in schedule.phases]
            ).T
        self.inner_bounds = inner[:, block]
        self.signature = signature.reshape(3, -1)
        self.phase_base = block * width

        counts = np.array([len(job.nodes) for job in jobs], dtype=np.int64)
        self.node_ids = np.concatenate([job.nodes for job in jobs])
        self.offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=self.offsets[1:])
        self.node_job = np.repeat(np.arange(n), counts)
        self._jitter_slots = self.offsets + np.arange(n)
        self._noise_slots = np.arange(len(self.node_ids)) + self.node_job + 1
        self._slot_std: tuple[tuple[float, float], np.ndarray] | None = None

    def draw(
        self,
        rng: np.random.Generator,
        ticks: int,
        modulation: bool,
        jitter_std: float,
        noise_std: float,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """The random draws of ``ticks`` ticks: ``(per tick, per tick and
        job, per tick and node)``, shaped ``(ticks,)``, ``(ticks, n)`` and
        ``(ticks, m)``.  The first are the load modulation's
        standard-normal innovations; the others are the jitter and noise
        factors ``max(0, 1 + σ·z)`` of standard-normal draws ``z``.

        The stream order is the object engine's, tick by tick: the load
        modulation's innovation (if ``modulation``), then job by job the
        job's jitter draw (if ``jitter_std > 0``) and one draw per node
        (if ``noise_std > 0``).  It comes from one ``standard_normal``
        call, one row per tick, split into the kinds of slot.
        ``Generator`` fills a size-k draw from the same stream k scalar
        draws consume, and ``normal(0, σ)`` is ``σ · z`` bit for bit, so
        these replay the per-tick, per-job draws exactly
        (``tests/equivalence/test_batched_draw.py`` pins both facts).  A
        kind that is off is not drawn (``None``).  One row per tick is
        the per-tick order again (``tests/equivalence/test_block_numpy.py``
        pins the block layout).  Both factors are computed in one pass
        over a row, each slot scaled by its own σ.
        """
        jitter, noise = jitter_std > 0, noise_std > 0
        lead = int(modulation)
        width = lead + self._jitter_slots.size * jitter + self.node_job.size * noise
        if width == 0:
            return None, None, None
        z = rng.standard_normal((ticks, width))
        innovations = z[:, 0] if modulation else None
        if not (jitter or noise):
            return innovations, None, None
        if jitter and noise:
            std: float | np.ndarray = self._slot_stds(jitter_std, noise_std)
        else:
            std = jitter_std if jitter else noise_std
        factors = np.maximum(0.0, 1.0 + std * z[:, lead:])
        if not noise:
            return innovations, factors, None
        if not jitter:
            return innovations, None, factors
        return (
            innovations,
            factors.take(self._jitter_slots, axis=1),
            factors.take(self._noise_slots, axis=1),
        )

    def _slot_stds(self, jitter_std: float, noise_std: float) -> np.ndarray:
        """σ of each slot of a row with both kinds drawn (kept per pair)."""
        key = (jitter_std, noise_std)
        if self._slot_std is None or self._slot_std[0] != key:
            stds = np.full(self._jitter_slots.size + self.node_job.size, noise_std)
            stds[self._jitter_slots] = jitter_std
            self._slot_std = (key, stds)
        return self._slot_std[1]

    def holds(self, jobs: list[Job]) -> bool:
        """Whether ``jobs`` are this table's jobs, in the same order."""
        return len(jobs) == len(self.jobs) and all(
            map(operator.is_, jobs, self.jobs)
        )


class JobExecutor:
    """Per-tick advancement of running jobs.

    Each tick's load carries :data:`UTIL_JITTER_STD` jitter per job and
    :data:`NODE_NOISE_STD` noise per node.

    Args:
        state: The cluster state to read levels from and write load into.
        rng: Random generator for load jitter (a named stream).
        modulation_std: Stationary std-dev of the cluster-wide load
            modulation — a slowly-varying AR(1) multiplicative factor
            shared by *all* jobs, modelling correlated demand swings
            (input-dependent intensity, phase alignment across jobs).
            This is what produces the occasional power excursions that
            power capping exists to contain; 0 disables it.
        modulation_tau_s: Correlation time of the modulation process,
            seconds — excursions last on this order.
        engine: Hot-path engine (instance, registry name, or ``None``
            for the default vector engine) that carries out the actual
            per-node stepping.
    """

    def __init__(
        self,
        state: ClusterState,
        rng: np.random.Generator,
        modulation_std: float = 0.08,
        modulation_tau_s: float = 60.0,
        engine: ClusterEngine | str | None = None,
    ) -> None:
        if modulation_std < 0:
            raise WorkloadError("modulation_std must be non-negative")
        if modulation_tau_s <= 0:
            raise WorkloadError("modulation_tau_s must be positive")
        self._state = state
        self._rng = rng
        self._modulation = LoadModulation(
            float(modulation_std), float(modulation_tau_s)
        )
        self._engine = get_engine(engine)
        self._table: RunningJobTable | None = None

    @property
    def engine(self) -> ClusterEngine:
        """The hot-path engine stepping this executor's jobs."""
        return self._engine

    @property
    def modulation_factor(self) -> float:
        """Current cluster-wide load multiplier (≈ 1.0 on average)."""
        return self._modulation.factor

    def advance(
        self, jobs: list[Job], now: float | np.ndarray, dt: float
    ) -> StepBlock:
        """Advance every RUNNING job in ``jobs`` by one or more ticks.

        Args:
            jobs: Jobs to advance (non-running entries are skipped).
            now: Simulated time at the *start* of the tick, or one start
                time per tick of a block of consecutive ticks.  The
                engine steps at least the first and may stop early (see
                :meth:`~repro.cluster.engine.ClusterEngine.step_jobs`).
            dt: Tick length, seconds.

        Returns:
            The :class:`StepBlock`: how many ticks were stepped, and the
            completion notices of the last one, with interpolated finish
            instants in ``(start, start+dt]`` of that tick.  The executor
            does **not** transition job state or release nodes — the
            scheduler owns those side effects.
        """
        if dt <= 0:
            raise WorkloadError("tick length must be positive")
        running_state = JobState.RUNNING  # the enum lookup per job shows here
        running = [job for job in jobs if job.state is running_state]
        if not running:
            # A tick of the modulation alone.
            self._modulation.step(dt, self._rng)
            none = np.empty((1, 0))
            return StepBlock(1, [], np.empty(0, dtype=np.int64), none, none, none)
        table = self._table
        if table is None or not table.holds(running):
            table = self._table = RunningJobTable(running)
        return self._engine.step_jobs(
            self._state,
            table.jobs,
            np.array(now, dtype=np.float64, ndmin=1),
            dt,
            self._rng,
            UTIL_JITTER_STD,
            NODE_NOISE_STD,
            self._modulation,
            table=table,
        )
