"""Warm-standby failover for the global power manager.

:class:`HaController` wraps the live :class:`~repro.core.manager.PowerManager`
with the crash/recovery lifecycle:

* each control cycle it first asks the fault model (scripted
  ``crash_at_cycles`` or the seeded ``controller_crash_rate`` process)
  whether the primary dies *this* cycle — a crash loses the cycle's
  control action, exactly like a process dying before actuating;
* while the controller is down the machine runs open-loop: jobs run,
  power moves, nobody senses or caps.  Downtime is
  ``lease_timeout_cycles`` when a warm standby is ready (lease expiry is
  the detection mechanism — the standby may not act sooner, or two
  managers could act in one cycle) and ``restart_cycles`` for a cold
  restart;
* at takeover the successor is built by the caller's ``manager_factory``
  (sharing the cluster, node sets, meter, policy, fault injector and —
  crucially — the **live actuator**, because in-flight DVFS commands
  are in the network, not in the dead process), restored from the
  :class:`~repro.ha.journal.StateJournal`, and fenced in by advancing
  the actuator's epoch.  Anything the deposed primary still
  has in flight is rejected at the fence, so no cycle is ever acted on
  by two managers — the invariant :attr:`DvfsActuator.epoch_conflicts`
  counts violations of (and the failover benchmark asserts stays zero).

In-flight commands are *frozen* during downtime: the actuator's cycle
clock only advances when a manager runs a cycle, so a command that was
in the network when the primary died arrives after the successor's
takeover and is fenced.  This is the conservative reading of the
paper's single-manager assumption — a command whose issuer cannot be
confirmed alive must not land.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import PowerManagementError
from repro.ha.config import HaConfig
from repro.ha.journal import StateJournal
from repro.obs.facade import Observability, resolve_obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.manager import CycleReport, PowerManager

__all__ = ["HaController", "HaStats"]


@dataclass(frozen=True)
class HaStats:
    """Crash/recovery accounting for one run.

    Attributes:
        crashes: Controller crashes that struck.
        failovers: Takeovers completed (warm + cold).
        warm_failovers: Takeovers served by a ready standby.
        cold_restarts: Takeovers that needed a full restart.
        downtime_cycles: Control cycles with no manager acting.
        fenced_commands: Commands rejected by the fencing epoch.
        epoch_conflicts: Cycles acted on by two epochs (must be 0).
        final_epoch: The actuator's fencing epoch at the end.
        journal_records: Records appended over the run.
        journal_compactions: Checkpoints folded into the journal.
    """

    crashes: int
    failovers: int
    warm_failovers: int
    cold_restarts: int
    downtime_cycles: int
    fenced_commands: int
    epoch_conflicts: int
    final_epoch: int
    journal_records: int
    journal_compactions: int


class HaController:
    """The crash/failover lifecycle around a power manager.

    Args:
        manager: The initial primary (already wired to the journal).
        manager_factory: Zero-argument callable building a successor
            manager that shares the primary's world — cluster, sets,
            meter, policy, injector, journal and the same actuator
            object — with *fresh* controller-internal state
            (thresholds, collector, Algorithm 1).  The controller
            restores that state from the journal; the factory must not.
        journal: The shared state journal.
        config: The :class:`~repro.ha.config.HaConfig` (must be
            ``enabled``).
        obs: Observability facade; trips the flight recorder on every
            controller crash and takeover, and mirrors the crash/
            recovery accounting as collected metric series.
    """

    def __init__(
        self,
        manager: "PowerManager",
        manager_factory: Callable[[], "PowerManager"],
        journal: StateJournal,
        config: HaConfig,
        obs: Observability | None = None,
    ) -> None:
        if not config.enabled:
            raise PowerManagementError("HaController requires HaConfig.enabled")
        self._manager = manager
        self._factory = manager_factory
        self._journal = journal
        self._config = config
        self._actuator = manager.actuator
        self._injector = manager.fault_injector
        # The primary adopts the command path's current epoch so a later
        # fence can depose it (an epoch-less manager can never be fenced).
        manager.set_fencing_epoch(self._actuator.epoch)
        self._crash_at = frozenset(config.crash_at_cycles)
        self._cycle = 0
        self._up = True
        self._down_remaining = 0
        self._standby_ready_cycle = 0 if config.warm_standby else None
        self._warm_next = False
        self._crashes = 0
        self._failovers = 0
        self._warm_failovers = 0
        self._cold_restarts = 0
        self._downtime_cycles = 0
        self._obs = resolve_obs(obs)
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Mirror the crash/recovery accounting as collected series."""
        obs = self._obs
        if not obs.metrics_on:
            return
        reg = obs.metrics
        reg.counter_func(
            "repro_controller_crashes_total",
            "Controller crashes that struck",
            lambda: float(self._crashes),
        )
        reg.counter_func(
            "repro_failovers_total",
            "Takeovers completed, by kind",
            lambda: float(self._warm_failovers),
            labels={"kind": "warm"},
        )
        reg.counter_func(
            "repro_failovers_total",
            "Takeovers completed, by kind",
            lambda: float(self._cold_restarts),
            labels={"kind": "cold"},
        )
        reg.counter_func(
            "repro_downtime_cycles_total",
            "Control cycles with no manager acting",
            lambda: float(self._downtime_cycles),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def manager(self) -> "PowerManager":
        """The manager currently holding (or awaiting) the lease."""
        return self._manager

    @property
    def up(self) -> bool:
        """Whether a manager is acting this cycle."""
        return self._up

    @property
    def epoch(self) -> int:
        """The actuator's current fencing epoch."""
        return self._actuator.epoch

    @property
    def cycles(self) -> int:
        """HA-layer control cycles elapsed (up or down)."""
        return self._cycle

    def stats(self) -> HaStats:
        """The run's crash/recovery accounting."""
        return HaStats(
            crashes=self._crashes,
            failovers=self._failovers,
            warm_failovers=self._warm_failovers,
            cold_restarts=self._cold_restarts,
            downtime_cycles=self._downtime_cycles,
            fenced_commands=self._actuator.fenced_commands,
            epoch_conflicts=self._actuator.epoch_conflicts,
            final_epoch=self._actuator.epoch,
            journal_records=self._journal.appended_total,
            journal_compactions=self._journal.compactions,
        )

    # ------------------------------------------------------------------
    # The HA control cycle
    # ------------------------------------------------------------------
    def control_cycle(self, now: float) -> "CycleReport | None":
        """Run one cycle of the crash/recovery state machine.

        Returns the manager's :class:`~repro.core.manager.CycleReport`,
        or ``None`` for a cycle the controller was down (crash cycle or
        downtime) — the machine ran open-loop.
        """
        self._cycle += 1
        if self._up and self._crash_strikes(now):
            self._crashes += 1
            self._up = False
            self._down_remaining = self._downtime_for_crash()
            self._obs.trip("controller_crash", now)
        if self._down_remaining > 0:
            self._down_remaining -= 1
            self._downtime_cycles += 1
            return None
        if not self._up:
            self._take_over()
            self._obs.trip("failover", now)
        return self._manager.control_cycle(now)

    def _crash_strikes(self, now: float) -> bool:
        if self._cycle in self._crash_at:
            return True
        inj = self._injector
        if inj is None or inj.scenario.controller_crash_rate <= 0.0:
            return False
        inj.begin_cycle(now)
        return inj.controller_crash_event()

    def _downtime_for_crash(self) -> int:
        """Cycles of downtime this crash costs (incl. the crash cycle)."""
        if (
            self._standby_ready_cycle is not None
            and self._cycle >= self._standby_ready_cycle
        ):
            self._warm_next = True
            return self._config.lease_timeout_cycles
        self._warm_next = False
        return self._config.restart_cycles

    def _take_over(self) -> None:
        """Build, restore and fence in the successor manager."""
        successor = self._factory()
        if successor.actuator is not self._actuator:
            raise PowerManagementError(
                "manager_factory must share the live actuator: in-flight "
                "commands are in the network and must be fenceable"
            )
        successor.restore_state(self._journal.recover())
        # Fencing: advance the epoch *after* recovery so the successor's
        # first command carries a token no deposed manager ever held.
        successor.set_fencing_epoch(self._actuator.advance_epoch())
        self._manager = successor
        self._failovers += 1
        if self._warm_next:
            self._warm_failovers += 1
            # The consumed standby is replaced in the background; until
            # the replacement finishes launching, a further crash costs
            # a full restart.
            self._standby_ready_cycle = self._cycle + self._config.restart_cycles
        else:
            self._cold_restarts += 1
        self._up = True
