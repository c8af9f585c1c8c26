"""The emergency response to shrinking power-delivery capacity.

When provisioned capacity drops below current draw, Algorithm 1's normal
cadence is too polite: yellow cycles degrade a handful of nodes per
cycle and steady-green hysteresis waits ``T_g`` cycles before restoring
anything, while a breaker upstream is integrating toward a trip.
:class:`EmergencyResponse` implements the defense:

* **emergency red** — any cycle whose draw exceeds surviving capacity is
  forced straight to red (the DVFS floor on every candidate), bypassing
  cadence and hysteresis;
* **degradation ladder** — if the floor is not enough, the response
  escalates: first **suspend** the lowest-priority active jobs (their
  nodes go idle), then **shed** idle candidate nodes from the
  scheduler's pool so no new work re-inflates the draw;
* **recovery / re-admission** — after capacity returns and the draw has
  stayed comfortably inside it, the ladder steps down one rung at a
  time: shed nodes re-admitted, suspended jobs resumed newest-first,
  each on its own recovered cycle (gradual, like Figure 2's restore);
* **branch capping** — racks drawing near their (possibly PDU-derated)
  branch rating are degraded locally even when the global budget is
  satisfied, so no local breaker ever accumulates a trip integral.

The response performs scheduler-side actions itself (suspend / resume /
offline); every DVFS command it *proposes* is returned to the manager,
which applies it through the fenced actuator — this module never writes
a level (RL301) and never writes a threshold (RL303; the manager calls
:meth:`~repro.core.thresholds.ThresholdController.set_envelope` with
:meth:`envelope_w`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.provision.runtime import ProvisionRuntime
from repro.types import Seconds, Watts
from repro.workload.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduler.scheduler import BatchScheduler

__all__ = ["EmergencyResponse"]

#: Ladder rungs (kept as plain ints so they journal/serialize trivially).
RUNG_NORMAL = 0  #: capacity covers the draw
RUNG_CAP = 1  #: emergency red: every candidate at the DVFS floor
RUNG_SUSPEND = 2  #: + lowest-priority jobs suspended
RUNG_SHED = 3  #: + idle candidate nodes removed from the pool


class EmergencyResponse:
    """The capacity-emergency ladder and branch-capping decision logic.

    Args:
        runtime: The live delivery state this response defends.
        scheduler: The batch scheduler, for the suspend/shed rungs and
            for killing jobs on blacked-out racks.  Without one the
            ladder stops at the DVFS floor (rung 1) and blackouts only
            force nodes idle.
        candidate_mask: Boolean mask over all nodes of the candidate
            (throttleable) set; branch capping and shedding only ever
            touch candidates.
    """

    def __init__(
        self,
        runtime: ProvisionRuntime,
        scheduler: "BatchScheduler | None" = None,
        candidate_mask: np.ndarray | None = None,
    ) -> None:
        self._runtime = runtime
        self._scenario = runtime.scenario
        self._scheduler = scheduler
        n = runtime.topology.num_nodes
        if candidate_mask is None:
            mask = np.ones(n, dtype=bool)
        else:
            mask = np.asarray(candidate_mask, dtype=bool).copy()
        self._candidate_mask = mask
        self._rack_of = runtime.topology.rack_index()
        self._num_racks = runtime.topology.num_racks
        self._over_streak = 0
        self._under_streak = 0
        self._forced_this_emergency = False
        self._suspended_ids: list[int] = []
        self._shed_nodes: list[np.ndarray] = []
        # Counters (folded into ProvisionStats by the manager).
        self.emergency_red_cycles = 0
        self.envelope_renegotiations = 0
        self.branch_cap_interventions = 0
        self.jobs_suspended = 0
        self.jobs_resumed = 0
        self.jobs_killed = 0
        self.nodes_shed = 0
        self.nodes_readmitted = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def runtime(self) -> ProvisionRuntime:
        """The delivery state being defended."""
        return self._runtime

    @property
    def defended(self) -> bool:
        """Whether the emergency response is armed at all."""
        return self._scenario.defend

    @property
    def branch_caps_on(self) -> bool:
        """Whether per-branch capping is armed."""
        return self._scenario.defend and self._scenario.branch_caps

    @property
    def rung(self) -> int:
        """Current ladder rung (derived from outstanding actions)."""
        if self._shed_nodes:
            return RUNG_SHED
        if self._suspended_ids:
            return RUNG_SUSPEND
        return RUNG_CAP if self._over_streak > 0 else RUNG_NORMAL

    def envelope_w(self) -> Watts | None:
        """The capacity envelope to renegotiate thresholds against.

        ``None`` when capacity is zero (a total blackout leaves nothing
        to derive thresholds from — the forced-red path carries the
        response instead).
        """
        cap = self._runtime.capacity_w
        return cap if cap > 0.0 else None

    # ------------------------------------------------------------------
    # The per-cycle decision
    # ------------------------------------------------------------------
    def update(self, now: Seconds, power_w: Watts) -> bool:
        """Advance the ladder one cycle; returns True to force red.

        Called after classification with the cycle's acted-on power.
        Escalation: each ``escalate_after_cycles`` consecutive cycles of
        draw above surviving capacity climbs one rung (suspending one
        more job, then shedding one more rack's worth of idle nodes,
        per over cycle while at that rung).  De-escalation: after
        ``recover_after_cycles`` consecutive cycles comfortably inside
        capacity, one outstanding action is undone per cycle.
        """
        if not self.defended:
            return False
        cap = self._runtime.capacity_w
        over = float(power_w) > cap
        if over:
            self._over_streak += 1
            self._under_streak = 0
            self.emergency_red_cycles += 1
        elif float(power_w) <= self._scenario.recover_fraction * cap:
            self._under_streak += 1
            self._over_streak = 0
        else:
            # Inside capacity but not comfortably: hold position.
            self._over_streak = 0
            self._under_streak = 0

        if over:
            if not self._forced_this_emergency:
                self._forced_this_emergency = True
                self._runtime.obs.trip("capacity_emergency", now)
            if self._over_streak >= self._scenario.escalate_after_cycles:
                self._escalate(now)
        else:
            self._forced_this_emergency = (
                self._forced_this_emergency and self._under_streak == 0
            )
            if (
                self._under_streak >= self._scenario.recover_after_cycles
                and self.rung > RUNG_CAP
            ):
                self._deescalate(now)
        return over

    def _escalate(self, now: Seconds) -> None:
        """One more ladder action: suspend a job, else shed idle nodes."""
        sched = self._scheduler
        if sched is None:
            return
        if self._over_streak < 2 * self._scenario.escalate_after_cycles:
            self._suspend_one(now)
        elif not self._suspend_one(now):
            self._shed_idle_nodes(now)

    def _suspend_one(self, now: Seconds) -> bool:
        """Suspend the lowest-priority active job (latest-started tie
        break); False when the suspend budget is exhausted."""
        sched = self._scheduler
        if sched is None:
            return False
        active = [j for j in sched.running_jobs if j.state is JobState.RUNNING]
        total = len(active) + len(self._suspended_ids)
        if total == 0:
            return False
        budget = int(self._scenario.max_suspend_fraction * total)
        if len(self._suspended_ids) >= budget or not active:
            return False
        victim = min(active, key=lambda j: (j.priority, -j.job_id))
        sched.suspend_job(victim.job_id, now)
        self._suspended_ids.append(victim.job_id)
        self.jobs_suspended += 1
        return True

    def _shed_idle_nodes(self, now: Seconds) -> None:
        """Remove one rack's worth of idle candidate nodes from the
        scheduler's pool (no new admission can re-inflate the draw)."""
        sched = self._scheduler
        if sched is None:
            return
        state = sched.cluster_state
        eligible = (
            state.idle_mask()
            & self._candidate_mask
            & ~sched.offline_mask
        )
        dark = self._runtime.dark_nodes
        eligible[dark] = False
        ids = np.flatnonzero(eligible).astype(np.int64)
        if len(ids) == 0:
            return
        batch = ids[: self._runtime.topology.nodes_per_rack]
        sched.take_offline(batch, now)
        self._shed_nodes.append(batch)
        self.nodes_shed += len(batch)

    def _deescalate(self, now: Seconds) -> None:
        """Undo one outstanding action: re-admit shed nodes first, then
        resume the most recently suspended job."""
        sched = self._scheduler
        if sched is None:
            return
        if self._shed_nodes:
            batch = self._shed_nodes.pop()
            sched.bring_online(batch)
            self.nodes_readmitted += len(batch)
            return
        while self._suspended_ids:
            job_id = self._suspended_ids.pop()
            if sched.resume_job(job_id, now):
                self.jobs_resumed += 1
                return

    # ------------------------------------------------------------------
    # Branch capping
    # ------------------------------------------------------------------
    def branch_targets(
        self, levels: np.ndarray, node_power_w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-branch capping proposal for the manager to actuate.

        Racks drawing above ``alarm_fraction`` of their branch limit get
        every candidate node still above the DVFS floor stepped down one
        level — local, immediate, independent of the global state
        machine.  Returns ``(node_ids, new_levels)``; both empty when
        every branch is comfortable.
        """
        hot_racks = self._runtime.branch_overloads(
            node_power_w, self._scenario.alarm_fraction
        )
        if len(hot_racks) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        rack_hot = np.zeros(self._num_racks, dtype=bool)
        rack_hot[hot_racks] = True
        lv = np.asarray(levels, dtype=np.int64)
        hot = rack_hot[self._rack_of] & self._candidate_mask & (lv > 0)
        ids = hot.nonzero()[0]
        if len(ids) == 0:
            return ids, ids
        self.branch_cap_interventions += 1
        return ids, np.maximum(lv[ids] - 1, 0)

    # ------------------------------------------------------------------
    # Blackout handling (physics — applies defended or not)
    # ------------------------------------------------------------------
    def handle_trips(self, tripped_racks: np.ndarray, now: Seconds) -> np.ndarray:
        """A breaker tripped: the rack is dark.  Kill its jobs, remove
        its nodes from the pool, and return the node ids so the manager
        can force them idle through the fenced actuator."""
        topo = self._runtime.topology
        racks = np.asarray(tripped_racks, dtype=np.int64)
        if len(racks) == 0:
            return np.empty(0, dtype=np.int64)
        nodes = np.concatenate([topo.rack_nodes(int(r)) for r in racks])
        sched = self._scheduler
        if sched is not None:
            dark = set(int(i) for i in nodes)
            victims: list[Job] = [
                job
                for job in sched.running_jobs
                if any(int(i) in dark for i in job.nodes)
            ]
            for job in victims:
                sched.kill_job(job.job_id, now)
                self.jobs_killed += 1
                if job.job_id in self._suspended_ids:
                    self._suspended_ids.remove(job.job_id)
            sched.take_offline(nodes, now)
        return nodes
