"""Live state of the power-delivery path during a run.

:class:`ProvisionRuntime` owns everything about delivery that *changes*
while an experiment runs: which utility feeds are live, which rack PDUs
are derated, the breaker trip integrals, and any standing operator cap
order.  The manager drives it once per control cycle:

1. :meth:`begin_cycle` — fire this cycle's scheduled and stochastic
   capacity events (the stochastic ones draw from the dedicated
   ``faults.provision`` substream, so attaching a provision runtime
   never perturbs workload or monitoring-fault streams);
2. the manager renegotiates its budget against :attr:`capacity_w` and
   runs the normal (or emergency) control cycle;
3. :meth:`settle` — integrate the cycle's *true* branch power into the
   breaker thermal model and account capacity-loss and
   branch-violation exposure.

Everything here is deterministic from the root seed; with a healthy
scenario no event ever fires and no stream is ever consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.facade import Observability, resolve_obs
from repro.power.thermal import BreakerThermalModel
from repro.provision.scenario import ProvisionScenario
from repro.provision.topology import PowerTopology
from repro.sim.random import RandomSource
from repro.types import Seconds, Watts

__all__ = ["ProvisionRuntime", "ProvisionCycleEvents", "ProvisionStats"]

#: Name of the dedicated random substream for power-side faults.
STREAM_NAME = "faults.provision"
#: Feeds the scheduled feed loss drops (the lowest-numbered ones).
FEED_LOSS_COUNT = 1
#: The rack whose PDU the scheduled PDU failure derates.
PDU_FAILURE_RACK = 0
#: Fraction of the branch rating surviving a PDU failure.
PDU_DERATE_FRACTION = 0.6
#: Per-cycle probability a stochastically lost feed returns.
FEED_RECOVERY_RATE = 0.05
#: Branch power above this fraction of the branch limit triggers branch
#: capping.
ALARM_FRACTION = 0.9


@dataclass(frozen=True)
class ProvisionCycleEvents:
    """Capacity events that fired in one control cycle."""

    feed_losses: int = 0
    feed_restores: int = 0
    pdu_failures: int = 0
    cap_order_started: bool = False
    cap_order_ended: bool = False

    @property
    def any(self) -> bool:
        """Whether anything happened this cycle."""
        return (
            self.feed_losses > 0
            or self.feed_restores > 0
            or self.pdu_failures > 0
            or self.cap_order_started
            or self.cap_order_ended
        )


@dataclass(frozen=True)
class ProvisionStats:
    """Aggregate power-delivery accounting for one run."""

    feed_losses: int
    feed_restores: int
    pdu_failures: int
    cap_orders: int
    breaker_trips: int
    capacity_lost_w_seconds: float
    branch_cap_violation_seconds: float
    min_capacity_w: float
    design_capacity_w: float
    emergency_red_cycles: int = 0
    envelope_renegotiations: int = 0
    branch_cap_interventions: int = 0
    jobs_suspended: int = 0
    jobs_resumed: int = 0
    jobs_killed: int = 0
    nodes_shed: int = 0
    nodes_readmitted: int = 0

    def as_dict(self) -> dict[str, float | int]:
        """Flat mapping for JSON payloads (chaos CI reads this)."""
        return {
            "feed_losses": self.feed_losses,
            "feed_restores": self.feed_restores,
            "pdu_failures": self.pdu_failures,
            "cap_orders": self.cap_orders,
            "breaker_trips": self.breaker_trips,
            "capacity_lost_w_seconds": self.capacity_lost_w_seconds,
            "branch_cap_violation_seconds": self.branch_cap_violation_seconds,
            "min_capacity_w": self.min_capacity_w,
            "design_capacity_w": self.design_capacity_w,
            "emergency_red_cycles": self.emergency_red_cycles,
            "envelope_renegotiations": self.envelope_renegotiations,
            "branch_cap_interventions": self.branch_cap_interventions,
            "jobs_suspended": self.jobs_suspended,
            "jobs_resumed": self.jobs_resumed,
            "jobs_killed": self.jobs_killed,
            "nodes_shed": self.nodes_shed,
            "nodes_readmitted": self.nodes_readmitted,
        }


class ProvisionRuntime:
    """Mutable delivery-path state plus its seeded fault processes.

    Args:
        topology: The rated delivery hierarchy.
        scenario: Which capacity events fire, and when.
        rng: Experiment stream registry; stochastic events draw from its
            ``faults.provision`` substream.  Required only when the
            scenario has stochastic rates.
        obs: Observability facade; capacity events trip the flight
            recorder (``feed_loss``, ``pdu_failure``, ``cap_order``,
            ``breaker_trip``).
    """

    def __init__(
        self,
        topology: PowerTopology,
        scenario: ProvisionScenario,
        rng: RandomSource | None = None,
        obs: Observability | None = None,
    ) -> None:
        if scenario.stochastic and rng is None:
            raise ConfigurationError(
                "scenario has stochastic provision events but no "
                "RandomSource was provided"
            )
        self.topology = topology
        self.scenario = scenario
        self._gen = None if rng is None else rng.stream(STREAM_NAME)
        self._obs = resolve_obs(obs)
        self._rack_of = topology.rack_index()
        self._num_racks = topology.num_racks
        self._design_capacity_w = topology.design_capacity_w
        self._base_ratings = topology.branch_ratings_w()
        self._feed_live = np.ones(topology.num_feeds, dtype=bool)
        self._feed_stochastic = np.zeros(topology.num_feeds, dtype=bool)
        self._derate = np.ones(topology.num_racks, dtype=np.float64)
        self._breakers = BreakerThermalModel(self._base_ratings)
        self._operator_cap_w: float | None = None
        self._cap_order_end_cycle: int | None = None
        self._cycle = -1
        self._last_now: float | None = None
        self._last_events = ProvisionCycleEvents()
        self._last_branch_over_w = 0.0
        #: The last rack fold of an array that cannot change.
        self._folded: tuple[np.ndarray, np.ndarray] | None = None
        self._refresh_delivery()
        # Counters / exposure accumulators.
        self._feed_losses = 0
        self._feed_restores = 0
        self._pdu_failures = 0
        self._cap_orders = 0
        self._capacity_lost_w_s = 0.0
        self._branch_violation_s = 0.0
        self._min_capacity_w = topology.design_capacity_w

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def obs(self) -> Observability:
        """The observability facade capacity events report through."""
        return self._obs

    @property
    def capacity_w(self) -> float:
        """Surviving global capacity this cycle, watts."""
        return self._capacity_w

    @property
    def design_capacity_w(self) -> float:
        """Healthy (all feeds, no orders) global capacity, watts."""
        return self._design_capacity_w

    @property
    def branch_limits_w(self) -> np.ndarray:
        """Per-rack deliverable branch power (rating × PDU derate)."""
        return self._branch_limits_w

    def _refresh_delivery(self) -> None:
        """Recompute capacity and (read-only) branch limits from their
        inputs; run after every change to them, never stale."""
        cap = self.topology.surviving_capacity_w(self._feed_live)
        if self._operator_cap_w is not None:
            cap = min(cap, self._operator_cap_w)
        self._capacity_w = cap
        limits = self._base_ratings * self._derate
        limits.setflags(write=False)
        self._branch_limits_w = limits

    @property
    def feed_live(self) -> np.ndarray:
        """Live-feed mask (copy)."""
        return self._feed_live.copy()

    @property
    def breakers(self) -> BreakerThermalModel:
        """The branch breaker model."""
        return self._breakers

    @property
    def breaker_trips(self) -> int:
        """Cumulative breaker trip events."""
        return self._breakers.trip_count

    @property
    def tripped_racks(self) -> np.ndarray:
        """Rack ids with latched-open breakers, ascending."""
        return np.flatnonzero(self._breakers.tripped).astype(np.int64)

    @property
    def dark_nodes(self) -> np.ndarray:
        """Node ids on blacked-out (tripped) racks, ascending."""
        return np.flatnonzero(self._breakers.tripped[self._rack_of]).astype(
            np.int64
        )

    @property
    def last_branch_over_w(self) -> float:
        """Worst branch overload of the last settled cycle, watts."""
        return self._last_branch_over_w

    @property
    def capacity_lost_w_seconds(self) -> float:
        """Integrated (design − surviving) capacity exposure, W·s."""
        return self._capacity_lost_w_s

    @property
    def branch_cap_violation_seconds(self) -> float:
        """Seconds any branch drew above its deliverable limit."""
        return self._branch_violation_s

    @property
    def min_capacity_w(self) -> float:
        """Lowest surviving capacity seen, watts."""
        return self._min_capacity_w

    def rack_power_w(self, node_power_w: np.ndarray) -> np.ndarray:
        """Fold per-node power into per-rack branch power, watts.  A
        read-only array owning its data cannot change, so its fold is
        kept, read-only, for the next call with that very array."""
        folded = self._folded
        if folded is not None and folded[0] is node_power_w:
            return folded[1]
        p = np.asarray(node_power_w, dtype=np.float64)
        if p.shape != (self.topology.num_nodes,):
            raise ConfigurationError("node power array shape mismatch")
        rack_p = np.bincount(self._rack_of, weights=p, minlength=self._num_racks)
        if p.base is None and not p.flags.writeable:
            rack_p.setflags(write=False)
            self._folded = (p, rack_p)
        return rack_p

    def stats(self) -> ProvisionStats:
        """Delivery-side accounting (the delivery layer folds in its
        response's emergency counters)."""
        return ProvisionStats(
            feed_losses=self._feed_losses,
            feed_restores=self._feed_restores,
            pdu_failures=self._pdu_failures,
            cap_orders=self._cap_orders,
            breaker_trips=self._breakers.trip_count,
            capacity_lost_w_seconds=self._capacity_lost_w_s,
            branch_cap_violation_seconds=self._branch_violation_s,
            min_capacity_w=self._min_capacity_w,
            design_capacity_w=self.design_capacity_w,
        )

    # ------------------------------------------------------------------
    # The per-cycle drive
    # ------------------------------------------------------------------
    def begin_cycle(self, now: Seconds) -> ProvisionCycleEvents:
        """Fire this cycle's capacity events; idempotent per instant."""
        if self._last_now is not None and now <= self._last_now:
            return self._last_events
        self._last_now = float(now)
        self._cycle += 1
        feed_losses = feed_restores = pdu_failures = 0
        cap_started = cap_ended = False
        sc = self.scenario

        # Scheduled feed loss / restore.
        if sc.feed_loss_at_cycle is not None:
            if self._cycle == sc.feed_loss_at_cycle:
                for feed in range(FEED_LOSS_COUNT):
                    if self._feed_live[feed]:
                        self._feed_live[feed] = False
                        feed_losses += 1
            if (
                sc.feed_restore_after_cycles is not None
                and self._cycle
                == sc.feed_loss_at_cycle + sc.feed_restore_after_cycles
            ):
                for feed in range(FEED_LOSS_COUNT):
                    if not self._feed_live[feed] and not self._feed_stochastic[feed]:
                        self._feed_live[feed] = True
                        feed_restores += 1

        # Scheduled PDU failure.
        if (
            sc.pdu_failure_at_cycle is not None
            and self._cycle == sc.pdu_failure_at_cycle
            and self._derate[PDU_FAILURE_RACK] == 1.0
        ):
            self._derate[PDU_FAILURE_RACK] = PDU_DERATE_FRACTION
            pdu_failures += 1

        # Operator cap order onset / expiry.
        if sc.cap_order_at_cycle is not None:
            if self._cycle == sc.cap_order_at_cycle:
                self._operator_cap_w = (
                    sc.cap_order_fraction * self.design_capacity_w
                )
                self._cap_order_end_cycle = (
                    self._cycle + sc.cap_order_duration_cycles
                )
                cap_started = True
            elif (
                self._cap_order_end_cycle is not None
                and self._cycle >= self._cap_order_end_cycle
                and self._operator_cap_w is not None
            ):
                self._operator_cap_w = None
                self._cap_order_end_cycle = None
                cap_ended = True

        # Stochastic events (dedicated substream, fixed draw order).
        gen = self._gen
        if gen is not None and sc.feed_loss_rate > 0.0:
            live = np.flatnonzero(self._feed_live)
            if len(live) > 0 and float(gen.random()) < sc.feed_loss_rate:
                feed = int(live[0])
                self._feed_live[feed] = False
                self._feed_stochastic[feed] = True
                feed_losses += 1
            for feed in np.flatnonzero(self._feed_stochastic):
                if float(gen.random()) < FEED_RECOVERY_RATE:
                    self._feed_live[feed] = True
                    self._feed_stochastic[feed] = False
                    feed_restores += 1
        if gen is not None and sc.pdu_failure_rate > 0.0:
            healthy = np.flatnonzero(self._derate >= 1.0)
            if len(healthy) > 0 and float(gen.random()) < sc.pdu_failure_rate:
                rack = int(healthy[int(gen.integers(len(healthy)))])
                self._derate[rack] = PDU_DERATE_FRACTION
                pdu_failures += 1

        self._feed_losses += feed_losses
        self._feed_restores += feed_restores
        self._pdu_failures += pdu_failures
        if cap_started:
            self._cap_orders += 1
        events = ProvisionCycleEvents(
            feed_losses=feed_losses,
            feed_restores=feed_restores,
            pdu_failures=pdu_failures,
            cap_order_started=cap_started,
            cap_order_ended=cap_ended,
        )
        self._last_events = events
        if feed_losses > 0:
            self._obs.trip("feed_loss", now)
        if pdu_failures > 0:
            self._obs.trip("pdu_failure", now)
        if cap_started:
            self._obs.trip("cap_order", now)
        self._refresh_delivery()
        self._min_capacity_w = min(self._min_capacity_w, self._capacity_w)
        return events

    def branch_overloads(self, node_power_w: np.ndarray) -> np.ndarray:
        """Rack ids drawing above :data:`ALARM_FRACTION` of their branch
        limit (tripped racks excluded — they are already dark)."""
        rack_p = self.rack_power_w(node_power_w)
        hot = rack_p > ALARM_FRACTION * self._branch_limits_w
        hot &= ~self._breakers.tripped
        return hot.nonzero()[0]

    def settle(
        self, now: Seconds, dt: Seconds, node_power_w: np.ndarray
    ) -> np.ndarray:
        """Integrate one cycle of true branch power into the physics.

        Advances the breaker trip integrals (overload is measured
        against the PDU-derated rating: a half-failed PDU overheats at
        what used to be a comfortable load), and charges the
        capacity-loss and branch-violation exposure meters.

        Args:
            now: End of the interval, simulated seconds.
            dt: Interval length, seconds.
            node_power_w: True per-node power over the interval, watts.

        Returns:
            Rack ids whose breakers tripped during this interval.
        """
        if dt <= 0.0:
            # Zero-length interval (the first managed cycle has no
            # elapsed time under management): nothing to integrate.
            return np.empty(0, dtype=np.int64)
        rack_p = self.rack_power_w(node_power_w)
        # A derated PDU makes the same current "hotter": scale the load
        # so the breaker model sees overload relative to the derated
        # rating.
        new_trips = self._breakers.step(rack_p / self._derate, dt)
        over = rack_p - self._branch_limits_w
        over[self._breakers.tripped] = 0.0
        # Every topology has at least one rack.
        self._last_branch_over_w = max(float(np.maximum.reduce(over)), 0.0)
        if self._last_branch_over_w > 0.0:
            self._branch_violation_s += float(dt)
        lost = self._design_capacity_w - self._capacity_w
        if lost > 0.0:
            self._capacity_lost_w_s += lost * float(dt)
        tripped_now = new_trips.nonzero()[0]
        if len(tripped_now) > 0:
            self._obs.trip("breaker_trip", now)
        return tripped_now

    def headroom_w(self, power_w: Watts) -> float:
        """Watts between a draw and surviving capacity (negative if over)."""
        return self.capacity_w - float(power_w)
