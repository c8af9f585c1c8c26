"""The structure-of-arrays fast path of the per-cycle hot loop.

# reprolint: hot-path

:class:`VectorEngine` is the production implementation of
:class:`~repro.cluster.engine.ClusterEngine`: telemetry sweeps are fancy-
indexed gathers, Formula (1) is fused array arithmetic, per-job
aggregation is ``numpy.bincount``, and job stepping is whole-tick array
work over the executor's cached
:class:`~repro.workload.executor.RunningJobTable`: one batched RNG
draw, a vectorised phase lookup, one ``speed_of`` gather with a
segmented ``minimum.reduceat`` for the bottleneck rates, vectorised
progress and finish detection, and one combined ``set_load`` write.
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
from repro.workload.executor import FinishedJob, RunningJobTable

if TYPE_CHECKING:
    from repro.cluster.state import ClusterState
    from repro.power.model import PowerModel
    from repro.workload.job import Job

__all__ = ["VectorEngine"]


class VectorEngine(ClusterEngine):
    """Vectorised hot-path kernels (the default engine)."""

    name = "vector"

    # -- telemetry -----------------------------------------------------
    def sample_telemetry(
        self, state: ClusterState, node_ids: np.ndarray, now: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sweep every agent at once: five gathers, five copies."""
        ids = node_ids
        return (
            state.level[ids].copy(),
            state.cpu_util[ids].copy(),
            state.mem_frac[ids].copy(),
            state.nic_frac[ids].copy(),
            state.job_id[ids].copy(),
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
        now: float,
        dt: float,
        rng: np.random.Generator,
        util_jitter_std: float,
        node_noise_std: float,
        modulation_factor: float,
        table: RunningJobTable | None = None,
    ) -> list[FinishedJob]:
        if not jobs:
            return []
        if table is None or table.jobs is not jobs:
            table = RunningJobTable(jobs)
        ids = table.node_ids
        progress = np.array([job.progress_s for job in jobs], dtype=float)

        # Phase lookup, from the progress at the start of the tick.
        # ``(p mod c) / c`` rounds to at most the float just below 1.0,
        # so ``phase_at``'s extra ``% 1.0`` is the identity here.
        pos = np.remainder(progress, table.cycle) / table.cycle
        phase = (table.inner_bounds <= pos).sum(axis=0)
        signature = table.signature.take(table.phase_base + phase, axis=1)
        beta = signature[0]

        # Bottleneck rate and degradation.  ``minimum.reduceat`` is an
        # exact segmented min — identical to the object engine's
        # per-node running min.
        s_min = np.minimum.reduceat(state.speed_of(ids), table.offsets)
        rates = 1.0 / ((1.0 - beta) + beta / s_min)
        min_levels = np.minimum.reduceat(state.level[ids], table.offsets)
        degraded = min_levels < state.spec.top_level

        # Progress and finish detection, written back to the jobs.
        remaining = np.maximum(0.0, table.nominal - progress)
        step_work = rates * dt
        done = step_work >= remaining
        progress = np.where(done, table.nominal, progress + step_work)
        for job, value in zip(jobs, progress.tolist()):
            job.progress_s = value
        for j in degraded.nonzero()[0].tolist():
            jobs[j].degraded_exposure_s += dt
        finished: list[FinishedJob] = []
        for j in done.nonzero()[0].tolist():
            rate, left = float(rates[j]), float(remaining[j])
            time_to_finish = left / rate if rate > 0 else dt
            finished.append(FinishedJob(jobs[j], finish_time=now + time_to_finish))

        # One combined load write.  Job node sets are disjoint, so this
        # equals the object engine's per-node writes; the association
        # ``(signature · jitter) · node_factor`` matches its scalar
        # product order.  With noise off every node factor is exactly
        # 1.0, and the product is skipped.
        jitter_z, noise_z = table.draw(rng, util_jitter_std > 0, node_noise_std > 0)
        jitter: float | np.ndarray = modulation_factor
        if jitter_z is not None:
            jitter_factor = np.maximum(0.0, 1.0 + util_jitter_std * jitter_z)
            jitter = modulation_factor * jitter_factor
        load = (signature[1:] * jitter).take(table.node_job, axis=1)
        if noise_z is not None:
            load *= np.maximum(0.0, 1.0 + node_noise_std * noise_z)
        ramp = np.where(
            table.ramped, np.minimum(1.0, (now - table.start) / table.ramp_s), 1.0
        )
        mem = (table.mem_fraction * ramp).take(table.node_job)
        state.set_load(ids, cpu_util=load[0], mem_frac=mem, nic_frac=load[1])
        return finished
