"""The paper-literal object-per-node reference engine.

:class:`ObjectEngine` implements every
:class:`~repro.cluster.engine.ClusterEngine` kernel the way §V of the
paper describes the real system: one profiling-agent reading per node,
one scalar Formula (1) evaluation per node, per-job power accumulated
node by node, and job stepping that walks each job's nodes one at a
time.  It exists as the *reference* the vectorised production path is
differentially tested against — every per-node Python loop in the
repository lives here, so the hot-path modules (which reprolint RL106
keeps loop-free) can delegate without exception.

Bit-identity notes (the equivalence harness asserts all of these):

* scalar float arithmetic and numpy float64 element-wise arithmetic
  produce identical bits when the association order matches, so each
  scalar expression below brackets exactly like its vector twin;
* ``numpy.random.Generator`` consumes its stream identically for ``m``
  scalar ``normal()`` draws and one size-``m`` draw, and
  ``normal(0, σ)`` is ``σ·z`` bit for bit, so the modulation
  innovation, per-job jitter and per-node noise draws here, one tick
  per call, read the same stream as the vector engine's one scaled
  ``standard_normal`` draw per block of ticks
  (``tests/equivalence/test_batched_draw.py`` pins this);
* dict accumulation in snapshot order equals ``numpy.bincount``'s
  left-to-right per-bin accumulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.engine import ClusterEngine
from repro.power.estimator import JobPowerTable
from repro.telemetry.agent import NodeSample
from repro.workload.executor import (
    FinishedJob,
    LoadModulation,
    RunningJobTable,
    StepBlock,
)

if TYPE_CHECKING:
    from repro.cluster.state import ClusterState
    from repro.power.model import PowerModel
    from repro.workload.job import Job
    from repro.workload.phases import Phase

__all__ = ["ObjectEngine"]


class ObjectEngine(ClusterEngine):
    """One-Python-step-per-node reference kernels."""

    name = "object"

    # -- telemetry -----------------------------------------------------
    def sample_telemetry(
        self, state: ClusterState, node_ids: np.ndarray, now: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One agent reading per node, packaged into aligned arrays."""
        samples = [
            NodeSample(
                node_id=int(i),
                time=float(now),
                level=int(state.level[i]),
                cpu_util=float(state.cpu_util[i]),
                mem_frac=float(state.mem_frac[i]),
                nic_frac=float(state.nic_frac[i]),
                job_id=int(state.job_id[i]),
            )
            for i in node_ids
        ]
        n = len(samples)
        level = np.empty(n, dtype=np.int64)
        cpu = np.empty(n, dtype=np.float64)
        mem = np.empty(n, dtype=np.float64)
        nic = np.empty(n, dtype=np.float64)
        job = np.empty(n, dtype=np.int64)
        for k, s in enumerate(samples):
            level[k] = s.level
            cpu[k] = s.cpu_util
            mem[k] = s.mem_frac
            nic[k] = s.nic_frac
            job[k] = s.job_id
        return level, cpu, mem, nic, job

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
        lv = np.asarray(level, dtype=np.int64)
        cpu = np.asarray(cpu_util, dtype=np.float64)
        mem = np.asarray(mem_frac, dtype=np.float64)
        nic = np.asarray(nic_frac, dtype=np.float64)
        lv, cpu, mem, nic = np.broadcast_arrays(lv, cpu, mem, nic)
        out = np.empty(lv.shape, dtype=np.float64)
        if node_ids is None:
            for k in range(lv.size):
                out[k] = float(
                    model.evaluate(
                        int(lv[k]), float(cpu[k]), float(mem[k]), float(nic[k])
                    )
                )
            return out
        ids = np.asarray(node_ids, dtype=np.int64)
        for k in range(len(ids)):
            out[k] = float(
                model.evaluate_for_nodes(
                    ids[k : k + 1],
                    lv[k : k + 1],
                    cpu[k : k + 1],
                    mem[k : k + 1],
                    nic[k : k + 1],
                )[0]
            )
        return out

    # -- per-job aggregation -------------------------------------------
    def aggregate_by_job(
        self, job_id: np.ndarray, values: np.ndarray
    ) -> JobPowerTable:
        jid_arr = np.asarray(job_id, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        for k in range(len(jid_arr)):
            jid = int(jid_arr[k])
            if jid < 0:
                continue
            sums[jid] = sums.get(jid, 0.0) + float(vals[k])
            counts[jid] = counts.get(jid, 0) + 1
        job_ids = np.array(sorted(sums), dtype=np.int64)
        power = np.array([sums[int(j)] for j in job_ids], dtype=np.float64)
        node_counts = np.array([counts[int(j)] for j in job_ids], dtype=np.int64)
        return JobPowerTable(job_ids, power, node_counts)

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
        # One tick per call, whatever the block: the reference steps
        # tick by tick.  ``table`` is ignored: the reference re-derives
        # every per-job constant from the job itself, which is what makes
        # it an oracle for the table-driven vector kernel.
        start = float(now[0])
        modulation_factor = modulation.step(dt, rng)
        finished: list[FinishedJob] = []
        top_level = state.spec.top_level
        for job in jobs:
            phase = job.app.schedule.phase_at(job.cycle_position)
            # Bottleneck rate: the job advances at the speed of its
            # slowest node (bulk-synchronous model), found node by node.
            s_min = np.inf
            min_level = top_level
            for k in range(len(job.nodes)):
                speed = float(state.speed_of(job.nodes[k : k + 1])[0])
                if speed < s_min:
                    s_min = speed
                lv = int(state.level[job.nodes[k]])
                if lv < min_level:
                    min_level = lv
            beta = phase.compute_boundness
            rate = 1.0 / ((1.0 - beta) + beta / s_min)
            if min_level < top_level:
                job.degraded_exposure_s += dt
            remaining = job.remaining_work_s
            step_work = rate * dt
            if step_work >= remaining and remaining >= 0.0:
                time_to_finish = remaining / rate if rate > 0 else dt
                job.progress_s = job.nominal_runtime_s
                self._write_load(
                    state, job, phase, start, rng,
                    util_jitter_std, node_noise_std, modulation_factor,
                )
                finished.append(
                    FinishedJob(job=job, finish_time=start + time_to_finish)
                )
                continue
            job.progress_s += step_work
            self._write_load(
                state, job, phase, start, rng,
                util_jitter_std, node_noise_std, modulation_factor,
            )
        ids = np.concatenate([job.nodes for job in jobs])
        return StepBlock(
            1,
            finished,
            ids,
            state.cpu_util[ids][None, :],
            state.mem_frac[ids][None, :],
            state.nic_frac[ids][None, :],
        )

    @staticmethod
    def _write_load(
        state: ClusterState,
        job: Job,
        phase: Phase,
        now: float,
        rng: np.random.Generator,
        util_jitter_std: float,
        node_noise_std: float,
        modulation_factor: float,
    ) -> None:
        jitter = modulation_factor
        if util_jitter_std > 0:
            jitter *= max(0.0, 1.0 + rng.normal(0.0, util_jitter_std))
        assert job.start_time is not None
        ramp = 1.0
        if job.app.mem_ramp_s > 0:
            ramp = min(1.0, (now - job.start_time) / job.app.mem_ramp_s)
        mem = job.app.mem_fraction * ramp
        for k in range(len(job.nodes)):
            node_factor = 1.0
            if node_noise_std > 0:
                node_factor = max(0.0, 1.0 + rng.normal(0.0, node_noise_std))
            state.set_load(
                job.nodes[k : k + 1],
                cpu_util=phase.cpu_util * jitter * node_factor,
                mem_frac=mem,
                nic_frac=phase.nic_frac * jitter * node_factor,
            )
