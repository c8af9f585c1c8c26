"""Advances running jobs each control tick and drives the cluster state.

# reprolint: hot-path

The executor is the bridge between the workload models and the machine
model.  Once per tick (``dt`` seconds, normally the telemetry/control
interval τ) every running job:

1. looks up its current :class:`~repro.workload.phases.Phase` from its
   progress (work-domain phases);
2. computes its progress rate from the DVFS levels of its nodes — the
   bulk-synchronous bottleneck model of
   :func:`repro.workload.scaling.job_progress_rate`;
3. advances ``progress_s`` by ``rate · dt`` and detects completion, with
   sub-tick interpolation of the finish instant so an uncapped job's
   measured runtime equals its nominal runtime *exactly* (the CPLJ metric
   depends on that exactness);
4. writes the phase's CPU/NIC signature (with small multiplicative
   jitter, shared across the job's nodes plus per-node noise) and the
   ramping memory footprint into the structure-of-arrays cluster state.

The stepping itself is delegated to a
:class:`~repro.cluster.engine.ClusterEngine`.  The vector engine does
all four steps for every running job at once, as array work over a
:class:`RunningJobTable`: the per-job constants (nominal runtime, cycle
length, phase rows, memory ramp, node layout), which the executor builds
once per distinct ordered set of running jobs and reuses on every tick
until a job starts, finishes, is suspended, resumed or killed.  The
object engine re-derives everything job by job and node by node.  Both
consume the executor's RNG stream identically, so the engines are
interchangeable bit for bit.

Power consumption itself is *not* computed here — the power model reads
the state this executor wrote, keeping workload and power strictly
layered.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.cluster.engine import ClusterEngine, get_engine
from repro.cluster.state import ClusterState
from repro.errors import WorkloadError
from repro.workload.job import Job, JobState
from repro.workload.phases import PhaseSchedule

__all__ = ["JobExecutor", "FinishedJob", "RunningJobTable"]


@dataclass(frozen=True)
class FinishedJob:
    """A completion notice: which job, and the exact finish instant."""

    job: Job
    finish_time: float


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
    * ``mem_fraction``, ``ramp_s``, ``ramped``, ``start`` — ``(n,)`` the
      memory footprint, its ramp (1.0 where there is none, so the unused
      division stays finite) and the start time;
    * ``node_ids`` — ``(m,)`` every job's nodes, concatenated in job
      order; ``offsets`` — ``(n,)`` each job's first entry;
      ``node_job`` — ``(m,)`` the job index of each entry.

    The table also keeps where each job's jitter and each node's noise
    sit in a tick's one random draw (see :meth:`draw`).
    """

    def __init__(self, jobs: list[Job]) -> None:
        self.jobs = jobs
        n = len(jobs)
        # Read through the Job properties once, so the bits match theirs.
        scalars = np.array(
            [
                (
                    job.nominal_runtime_s,
                    job.cycle_length_s,
                    job.app.mem_fraction,
                    job.app.mem_ramp_s,
                    job.start_time,
                )
                for job in jobs
            ],
            dtype=float,
        )
        self.nominal, self.cycle, self.mem_fraction, ramp, self.start = (
            np.ascontiguousarray(scalars.T)
        )
        self.ramped = ramp > 0
        self.ramp_s = np.where(self.ramped, ramp, 1.0)

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

    def draw(
        self, rng: np.random.Generator, jitter: bool, noise: bool
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """One tick's standard-normal draws: ``(per job, per node)``.

        The stream order is the object engine's: job by job, the job's
        jitter draw (if ``jitter``), then one draw per node (if
        ``noise``).  It comes from one ``standard_normal`` call, split
        into the two kinds of slot.  ``Generator`` fills a size-k draw
        from the same stream k scalar draws consume, and ``normal(0, σ)``
        is ``σ · z`` bit for bit, so scaling these by σ replays the
        per-job draws exactly (``tests/equivalence/test_batched_draw.py``
        pins both facts).  A kind that is off is not drawn (``None``).
        """
        if jitter and noise:
            z = rng.standard_normal(len(self.jobs) + len(self.node_ids))
            return z[self._jitter_slots], z[self._noise_slots]
        if jitter:
            return rng.standard_normal(len(self.jobs)), None
        if noise:
            return None, rng.standard_normal(len(self.node_ids))
        return None, None

    def holds(self, jobs: list[Job]) -> bool:
        """Whether ``jobs`` are this table's jobs, in the same order."""
        return len(jobs) == len(self.jobs) and all(
            map(operator.is_, jobs, self.jobs)
        )


class JobExecutor:
    """Per-tick advancement of running jobs.

    Args:
        state: The cluster state to read levels from and write load into.
        rng: Random generator for load jitter (a named stream).
        util_jitter_std: Std-dev of the multiplicative per-tick jitter
            applied to the phase's CPU/NIC signature (shared by all nodes
            of a job — phases are synchronous).  Set 0 for deterministic
            load.
        node_noise_std: Std-dev of additional per-node multiplicative
            noise (load imbalance).
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
        util_jitter_std: float = 0.04,
        node_noise_std: float = 0.02,
        modulation_std: float = 0.08,
        modulation_tau_s: float = 60.0,
        engine: ClusterEngine | str | None = None,
    ) -> None:
        if util_jitter_std < 0 or node_noise_std < 0:
            raise WorkloadError("jitter std-devs must be non-negative")
        if modulation_std < 0:
            raise WorkloadError("modulation_std must be non-negative")
        if modulation_tau_s <= 0:
            raise WorkloadError("modulation_tau_s must be positive")
        self._state = state
        self._rng = rng
        self._util_jitter = float(util_jitter_std)
        self._node_noise = float(node_noise_std)
        self._modulation_std = float(modulation_std)
        self._modulation_tau = float(modulation_tau_s)
        self._modulation = 0.0  # AR(1) state, zero-mean
        self._engine = get_engine(engine)
        self._table: RunningJobTable | None = None

    @property
    def engine(self) -> ClusterEngine:
        """The hot-path engine stepping this executor's jobs."""
        return self._engine

    @property
    def modulation_factor(self) -> float:
        """Current cluster-wide load multiplier (≈ 1.0 on average)."""
        return min(1.45, max(0.55, 1.0 + self._modulation))

    def advance(self, jobs: list[Job], now: float, dt: float) -> list[FinishedJob]:
        """Advance every RUNNING job in ``jobs`` by one tick.

        Args:
            jobs: Jobs to advance (non-running entries are skipped).
            now: Simulated time at the *start* of the tick.
            dt: Tick length, seconds.

        Returns:
            Completion notices for jobs whose work finished during this
            tick, with interpolated finish instants in ``(now, now+dt]``.
            The executor does **not** transition job state or release
            nodes — the scheduler owns those side effects.
        """
        if dt <= 0:
            raise WorkloadError("tick length must be positive")
        self._step_modulation(dt)
        running_state = JobState.RUNNING  # the enum lookup per job shows here
        running = [job for job in jobs if job.state is running_state]
        if not running:
            return []
        table = self._table
        if table is None or not table.holds(running):
            table = self._table = RunningJobTable(running)
        return self._engine.step_jobs(
            self._state,
            table.jobs,
            now,
            dt,
            self._rng,
            self._util_jitter,
            self._node_noise,
            self.modulation_factor,
            table=table,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _step_modulation(self, dt: float) -> None:
        """Advance the cluster-wide AR(1) load modulation by ``dt``."""
        if self._modulation_std == 0.0:
            return
        rho = float(np.exp(-dt / self._modulation_tau))
        innovation = self._rng.normal(0.0, self._modulation_std)
        self._modulation = rho * self._modulation + (1.0 - rho * rho) ** 0.5 * innovation
