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
offline); every DVFS command it *proposes* goes back through the
manager, which applies it through the fenced actuator — this module
never writes a level (RL301), and it moves thresholds only through
:meth:`~repro.core.thresholds.ThresholdController.set_envelope` (RL303).

:class:`PowerDelivery` is the layer one manager incarnation attaches: it
drives the shared :class:`~repro.provision.runtime.ProvisionRuntime`
and its own response at the control cycle's stage boundaries.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.states import PowerState
from repro.obs.facade import Observability
from repro.provision.runtime import ProvisionRuntime, ProvisionStats
from repro.types import Seconds, Watts
from repro.workload.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.state import ClusterState
    from repro.core.capping import CappingDecision
    from repro.core.manager import PowerManager
    from repro.core.thresholds import ThresholdController
    from repro.power.hetero import HeterogeneousPowerModel
    from repro.power.model import PowerModel
    from repro.scheduler.scheduler import BatchScheduler

__all__ = ["EmergencyResponse", "PowerDelivery"]

#: Ladder rungs (kept as plain ints so they journal/serialize trivially).
RUNG_NORMAL = 0  #: capacity covers the draw
RUNG_CAP = 1  #: emergency red: every candidate at the DVFS floor
RUNG_SUSPEND = 2  #: + lowest-priority jobs suspended
RUNG_SHED = 3  #: + idle candidate nodes removed from the pool

#: Branch power above this fraction of the branch limit triggers branch
#: capping.
ALARM_FRACTION = 0.9
#: Consecutive over-capacity cycles before the ladder climbs a rung.
ESCALATE_AFTER_CYCLES = 5
#: Consecutive recovered cycles before the ladder steps down a rung.
RECOVER_AFTER_CYCLES = 30
#: "Recovered" means draw below this fraction of surviving capacity.
RECOVER_FRACTION = 0.95
#: At most this fraction of active jobs may be suspended by the ladder.
MAX_SUSPEND_FRACTION = 0.5


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
        # Counters (folded into ProvisionStats by PowerDelivery).
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
        Escalation: each :data:`ESCALATE_AFTER_CYCLES` consecutive cycles of
        draw above surviving capacity climbs one rung (suspending one
        more job, then shedding one more rack's worth of idle nodes,
        per over cycle while at that rung).  De-escalation: after
        :data:`RECOVER_AFTER_CYCLES` consecutive cycles comfortably inside
        capacity, one outstanding action is undone per cycle.
        """
        if not self._scenario.defend:
            return False
        cap = self._runtime.capacity_w
        over = float(power_w) > cap
        if over:
            self._over_streak += 1
            self._under_streak = 0
            self.emergency_red_cycles += 1
        elif float(power_w) <= RECOVER_FRACTION * cap:
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
            if self._over_streak >= ESCALATE_AFTER_CYCLES:
                self._escalate(now)
        else:
            self._forced_this_emergency = (
                self._forced_this_emergency and self._under_streak == 0
            )
            if (
                self._under_streak >= RECOVER_AFTER_CYCLES
                and self.rung > RUNG_CAP
            ):
                self._deescalate(now)
        return over

    def _escalate(self, now: Seconds) -> None:
        """One more ladder action: suspend a job, else shed idle nodes."""
        sched = self._scheduler
        if sched is None:
            return
        if self._over_streak < 2 * ESCALATE_AFTER_CYCLES:
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
        budget = int(MAX_SUSPEND_FRACTION * total)
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

        Racks drawing above :data:`ALARM_FRACTION` of their branch limit get
        every candidate node still above the DVFS floor stepped down one
        level — local, immediate, independent of the global state
        machine.  Returns ``(node_ids, new_levels)``; both empty when
        every branch is comfortable.
        """
        hot_racks = self._runtime.branch_overloads(
            node_power_w, ALARM_FRACTION
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


class PowerDelivery:
    """The power-delivery layer of one manager incarnation.

    Its hooks run at three boundaries of the control cycle:

    * **cycle start** — the runtime's capacity events, then budget
      renegotiation: thresholds (and any later learning) are clamped to
      the surviving capacity's envelope the moment delivery changes,
      downward on a loss and back up on recovery;
    * **after classify** — emergency red, when the response is armed;
    * **after actuate** — per-branch caps, the breaker physics and the
      blackout of any rack whose breaker tripped (:meth:`settle`).

    The runtime is shared by every incarnation of a run; the response
    and the settle clock belong to this one.

    Args:
        runtime: The run's delivery state.
        scheduler: For the response's suspend/shed rungs and blackouts.
        candidate_mask: Boolean mask of the candidate set over all nodes.
        thresholds: The incarnation's threshold controller.
        model: The power model the meter integrates (true branch power).
        state: The live cluster state.
        manager: The incarnation, whose
            :meth:`~repro.core.manager.PowerManager.actuate_for_layer`
            issues this layer's DVFS commands.
        obs: Observability facade; the delivery series are mirrored
            when metrics are on.
    """

    def __init__(
        self,
        runtime: ProvisionRuntime,
        scheduler: "BatchScheduler | None",
        candidate_mask: np.ndarray,
        thresholds: "ThresholdController",
        model: "PowerModel | HeterogeneousPowerModel",
        state: "ClusterState",
        manager: "PowerManager",
        obs: Observability | None = None,
    ) -> None:
        self.response = EmergencyResponse(runtime, scheduler, candidate_mask)
        self._runtime = runtime
        self._thresholds = thresholds
        self._model = model
        self._state = state
        self._manager = manager
        scenario = runtime.scenario
        self._defended = scenario.defend
        self._branch_caps = scenario.defend and scenario.branch_caps
        self._last_settle: float | None = None
        if obs is not None and obs.metrics_on:
            self._register_metrics(obs)

    def _register_metrics(self, obs: Observability) -> None:
        reg = obs.metrics
        prov = self._runtime
        emr = self.response
        reg.counter_func(
            "repro_breaker_trips_total",
            "Branch breakers tripped (racks blacked out)",
            lambda: float(prov.breaker_trips),
        )
        reg.counter_func(
            "repro_capacity_lost_watt_seconds_total",
            "Integrated (design - surviving) delivery capacity, W*s",
            lambda: prov.capacity_lost_w_seconds,
        )
        reg.counter_func(
            "repro_branch_cap_violation_seconds_total",
            "Seconds any branch drew above its deliverable limit",
            lambda: prov.branch_cap_violation_seconds,
        )
        reg.gauge_func(
            "repro_delivery_capacity_watts",
            "Surviving delivery capacity, watts",
            lambda: prov.capacity_w,
        )
        reg.counter_func(
            "repro_emergency_red_cycles_total",
            "Cycles forced red by the capacity emergency path",
            lambda: float(emr.emergency_red_cycles),
        )
        reg.counter_func(
            "repro_jobs_suspended_total",
            "Jobs suspended by the degradation ladder",
            lambda: float(emr.jobs_suspended),
        )

    def hooks(self) -> dict[str, Callable[..., Any]]:
        """The layer's hooks by boundary."""
        hooks: dict[str, Callable[..., Any]] = {
            "start": self.begin_cycle,
            "actuated": self.settle,
        }
        if self._defended:
            hooks["classified"] = self.classified
        return hooks

    def begin_cycle(self, now: Seconds) -> None:
        """Fire the runtime's events, then renegotiate the budget."""
        self._runtime.begin_cycle(now)
        if self._defended and self._thresholds.set_envelope(
            self.response.envelope_w()
        ):
            self.response.envelope_renegotiations += 1

    def classified(
        self,
        now: Seconds,
        power: Watts,
        state: PowerState,
        snapshot: Any,
        facts: dict[str, Any],
    ) -> PowerState:
        """Capacity emergency: draw exceeds surviving delivery capacity.
        Red, now — cadence and steady-green hysteresis are for budget
        *management*, not for physics."""
        if self.response.update(now, power):
            facts["emergency_red"] = True
            return PowerState.RED
        return state

    def _node_power_w(self) -> np.ndarray:
        """True per-node power over the live state, read-only.

        The meter's model over the *actual* state arrays (not the
        snapshot, which may be stale, partial or corrupted) is the
        branch power the breakers experience.  Read-only, so the runtime
        folds it into racks once.
        """
        power = self._model.node_power(self._state)
        power.setflags(write=False)
        return power

    def settle(
        self,
        now: Seconds,
        state: PowerState,
        decision: "CappingDecision",
        facts: dict[str, Any],
    ) -> None:
        """The delivery-side tail of one cycle.

        After the global decision has been actuated, (1) per-branch
        capping degrades candidates on racks near their deliverable
        limit, (2) the cycle's true branch power is settled into the
        breaker thermal model, and (3) any breaker that tripped blacks
        out its rack: jobs killed, nodes fenced offline and forced idle.
        """
        node_power = self._node_power_w()
        if self._branch_caps:
            ids, new_levels = self.response.branch_targets(
                self._state.level, node_power
            )
            if len(ids) > 0:
                self._manager.actuate_for_layer(
                    ids, new_levels, state, decision.time_in_green
                )
                # Branch capping changed levels inside this interval;
                # settle the physics against the post-cap draw.
                node_power = self._node_power_w()
        last, self._last_settle = self._last_settle, float(now)
        tripped = self._runtime.settle(
            now, 0.0 if last is None else float(now) - last, node_power
        )
        if len(tripped) > 0:
            dark = self.response.handle_trips(tripped, now)
            if len(dark) > 0:
                # A dark rack draws nothing: floor its nodes.
                self._manager.actuate_for_layer(
                    dark, None, state, decision.time_in_green
                )
        facts["capacity_w"] = self._runtime.capacity_w

    def stats(self) -> ProvisionStats:
        """The run's delivery accounting, with the response's ladder
        counters folded in."""
        emr = self.response
        return replace(
            self._runtime.stats(),
            emergency_red_cycles=emr.emergency_red_cycles,
            envelope_renegotiations=emr.envelope_renegotiations,
            branch_cap_interventions=emr.branch_cap_interventions,
            jobs_suspended=emr.jobs_suspended,
            jobs_resumed=emr.jobs_resumed,
            jobs_killed=emr.jobs_killed,
            nodes_shed=emr.nodes_shed,
            nodes_readmitted=emr.nodes_readmitted,
        )
