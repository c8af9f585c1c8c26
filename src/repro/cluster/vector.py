"""The structure-of-arrays fast path of the per-cycle hot loop.

# reprolint: hot-path

:class:`VectorEngine` is the production implementation of
:class:`~repro.cluster.engine.ClusterEngine`: telemetry sweeps are fancy-
indexed gathers, Formula (1) is fused array arithmetic, per-job
aggregation is ``numpy.bincount``, and job stepping is array work over
a block of ticks and the executor's cached
:class:`~repro.workload.executor.RunningJobTable`: one ``speed_of``
gather with a segmented ``minimum.reduceat`` for the bottleneck rates,
progress summed tick by tick with ``add.accumulate``, a vectorised
phase lookup per tick, finish and rate-change detection that end the
block, one batched RNG draw for the whole block, and one combined load
write.  A tick is a block of one; the managed window steps those.
The only per-job Python is moving ``progress_s`` and
``degraded_exposure_s`` between the jobs and the arrays, since
:class:`~repro.workload.job.Job` stays their only record.  No kernel
loops over nodes in Python — reprolint's RL106 enforces that for every
module carrying the hot-path marker above.

Bit-identity with the object engine is engineered, not hoped for: see
the module docstring of :mod:`repro.cluster.engine` for the contract,
and the inline notes below for where each association order matters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.engine import ClusterEngine
from repro.power.estimator import JobPowerTable, NodePowerEstimator
from repro.workload.executor import FinishedJob, RunningJobTable, StepBlock

if TYPE_CHECKING:
    from repro.cluster.state import ClusterState
    from repro.power.model import PowerModel
    from repro.workload.executor import LoadModulation
    from repro.workload.job import Job

__all__ = ["VectorEngine"]


class VectorEngine(ClusterEngine):
    """Vectorised hot-path kernels (the default engine)."""

    name = "vector"

    # -- telemetry -----------------------------------------------------
    def sample_telemetry(
        self, state: ClusterState, node_ids: np.ndarray, now: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sweep every agent at once: five gathers, each a fresh copy."""
        ids = node_ids
        return (
            state.level[ids],
            state.cpu_util[ids],
            state.mem_frac[ids],
            state.nic_frac[ids],
            state.job_id[ids],
        )

    # -- Formula (1) estimation ----------------------------------------
    def estimate_node_power(
        self,
        model: PowerModel,
        level: np.ndarray,
        cpu_util: np.ndarray,
        mem_frac: np.ndarray,
        nic_frac: np.ndarray,
        node_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        if node_ids is not None:
            return model.evaluate_for_nodes(
                node_ids, level, cpu_util, mem_frac, nic_frac
            )
        return np.asarray(
            model.evaluate(level, cpu_util, mem_frac, nic_frac),
            dtype=np.float64,
        )

    # -- per-job aggregation -------------------------------------------
    def aggregate_by_job(
        self, job_id: np.ndarray, values: np.ndarray
    ) -> JobPowerTable:
        # ``numpy.bincount`` accumulates each bin's weights left to
        # right in input order — the same association the object
        # engine's dict accumulation uses, hence bit-identical sums.
        return NodePowerEstimator.aggregate_by_job(job_id, values)

    # -- workload stepping ---------------------------------------------
    def step_jobs(
        self,
        state: ClusterState,
        jobs: list[Job],
        now: np.ndarray,
        dt: float,
        rng: np.random.Generator,
        util_jitter_std: float,
        node_noise_std: float,
        modulation: LoadModulation,
        table: RunningJobTable | None = None,
    ) -> StepBlock:
        if table is None or table.jobs is not jobs:
            table = RunningJobTable(jobs)
        ids = table.node_ids
        progress = np.array([job.progress_s for job in jobs], dtype=float)

        # Bottleneck speed and degradation hold for the whole block: no
        # DVFS level changes between ticks.  ``minimum.reduceat`` is an
        # exact segmented min — identical to the object engine's
        # per-node running min.  A ladder's top level runs at speed
        # ``f/f_max`` = 1.0 exactly and every lower level strictly below
        # it (frequencies strictly increase), so a job has a node below
        # the top level exactly when its bottleneck speed is below 1.0.
        s_min = np.minimum.reduceat(state.speed_of(ids), table.offsets)
        degraded = s_min < 1.0

        # The first tick's phase, signature and rate, from the progress
        # at its start.  Every per-job array keeps a tick axis, so a
        # block of one needs no case of its own.
        phase = _phases(table, progress)[None, :]
        signature = table.signature.take(table.phase_base + phase, axis=1)
        rates = _rates(signature[0, 0], s_min)
        step_work = rates * dt
        ticks = now.shape[0]
        if ticks > 1:
            # Look only as far as the first finish can be.
            remaining = np.maximum(0.0, table.nominal - progress)
            ticks = min(ticks, int(np.min(remaining / step_work)) + 2)
        if ticks > 1:
            # Progress at the start of each tick, were every rate to stay
            # the first tick's.  ``add.accumulate`` adds one row at a
            # time, so each entry is the tick-by-tick sum bit for bit.
            path = np.empty((ticks, len(jobs)))
            path[0] = progress
            path[1:] = step_work
            np.add.accumulate(path, axis=0, out=path)
            phase = _phases(table, path)
            beta = table.signature[0].take(table.phase_base + phase)
            changed = (_rates(beta, s_min) != rates).any(axis=1)
            finishing = (
                step_work >= np.maximum(0.0, table.nominal - path)
            ).any(axis=1)
            # The block ends before the first tick whose rate differs,
            # or after the first tick in which a job finishes.
            stops = np.flatnonzero(changed[1:] | finishing[:-1])
            if stops.size:
                ticks = int(stops[0]) + 1
            if ticks > 1:
                signature = table.signature.take(
                    table.phase_base + phase[:ticks], axis=1
                )
            progress = path[ticks - 1]

        # The last tick: progress and finish detection, written back to
        # the jobs.
        remaining = np.maximum(0.0, table.nominal - progress)
        done = step_work >= remaining
        progress = np.where(done, table.nominal, progress + step_work)
        for job, value in zip(jobs, progress.tolist()):
            job.progress_s = value
        for j in degraded.nonzero()[0].tolist():
            exposure = jobs[j].degraded_exposure_s
            for _ in range(ticks):
                exposure += dt
            jobs[j].degraded_exposure_s = exposure
        start = float(now[ticks - 1])
        finished: list[FinishedJob] = []
        for j in done.nonzero()[0].tolist():
            rate, left = float(rates[j]), float(remaining[j])
            time_to_finish = left / rate if rate > 0 else dt
            finished.append(FinishedJob(jobs[j], finish_time=start + time_to_finish))

        # Every tick's load, one row per tick.  Job node sets are
        # disjoint, so the rows equal the object engine's per-node
        # writes; the association ``(signature · (modulation · jitter))
        # · node_factor`` matches its scalar product order.  With noise
        # off every node factor is exactly 1.0, and the product is
        # skipped.  CPU, NIC and memory reach the nodes in one ``take``
        # and are clipped together.
        modulation_z, jitter, noise = table.draw(
            rng, ticks, modulation.drawn, util_jitter_std, node_noise_std
        )
        scale: float | np.ndarray = (
            modulation.factor
            if modulation_z is None
            else np.array(modulation.advance(dt, modulation_z))[:, None]
        )
        if jitter is not None:
            scale = scale * jitter
        per_job = np.empty((3, ticks, len(jobs)))
        np.multiply(signature[1:], scale, out=per_job[:2])
        ramp = np.minimum(1.0, (now[:ticks, None] - table.ramp_from) / table.ramp_s)
        np.multiply(table.mem_fraction, ramp, out=per_job[2])
        load = per_job.take(table.node_job, axis=2)
        if noise is not None:
            load[:2] *= noise
        # Clipped as ``ClusterState.set_load`` clips; the state keeps
        # the last tick.
        np.fmin(np.fmax(load, 0.0, out=load), 1.0, out=load)
        cpu, nic, mem = load[0], load[1], load[2]
        state.cpu_util[ids] = cpu[-1]
        state.mem_frac[ids] = mem[-1]
        state.nic_frac[ids] = nic[-1]
        return StepBlock(ticks, finished, ids, cpu, mem, nic)


def _phases(table: RunningJobTable, progress: np.ndarray) -> np.ndarray:
    """Each job's phase index at ``(n,)`` or ``(ticks, n)`` progress
    values.

    ``(p mod c) / c`` rounds to at most the float just below 1.0, so
    ``phase_at``'s extra ``% 1.0`` is the identity here.
    """
    pos = np.remainder(progress, table.cycle) / table.cycle
    bounds = table.inner_bounds
    if pos.ndim > 1:
        bounds = bounds[:, None, :]
    return np.add.reduce(bounds <= pos, axis=0)


def _rates(beta: np.ndarray, s_min: np.ndarray) -> np.ndarray:
    """Bulk-synchronous progress rates for compute-boundness ``beta``."""
    return 1.0 / ((1.0 - beta) + beta / s_min)
