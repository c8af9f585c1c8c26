"""DVFS actuation: applying capping decisions to the machine.

On the paper's platform "the power manager will send commands to all
nodes in the A_target, and tell them to regulate their power state to the
corresponding target level" (§III.A), each level being one processor
frequency step.  Here the actuator writes the commanded levels into the
cluster state — atomically for the whole target set, matching the paper's
property that the algorithm "regulates the power states of all nodes in
the system synchronously" — and keeps actuation statistics the
experiments report (commands issued, degrade/upgrade totals).

On a real machine a commanded level does not always land: the RPC is
dropped, the node's management daemon is wedged, or the write arrives
cycles late.  The actuator therefore **verifies every command by
readback** (commanded vs. post-write level) and re-issues verified-lost
commands with exponential backoff in control cycles — capped at
:data:`MAX_BACKOFF_CYCLES` so a long outage cannot schedule absurdly
distant retries — bounded by :data:`MAX_RETRIES` re-issues, after which
the command is dropped and counted in ``abandoned_commands``; a newer
command to the same node supersedes any pending re-issue.  It also enforces the
degraded-mode safety clamp: a command that would *raise* a node's actual
level only lands if the caller marked that node's telemetry as fresh
(``raise_ok``), so stale data can never upgrade a node — not even
through a yellow-cycle command computed from an out-of-date snapshot.

The actuator is also where the high-availability layer's **fencing
tokens** (:mod:`repro.ha`) bite.  The actuator models the command path
shared by every incarnation of the power manager, so it carries a
monotone ``epoch``; each command is stamped with its issuer's epoch, and
a command from any epoch other than the current one — a batch from a
deposed primary, or a pre-crash command still in flight when the
successor takes over — is rejected and counted in ``fenced_commands``
instead of landing.  A single manager (epoch never advanced) never
triggers fencing.  Every :meth:`apply` returns an
:class:`ActuationReport` separating effective, no-op, suppressed, lost,
delayed and fenced commands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.state import ClusterState
from repro.core.capping import CappingAction, CappingDecision
from repro.errors import PowerManagementError
from repro.faults.injector import FaultInjector
from repro.obs.facade import Observability, resolve_obs

__all__ = ["ActuationReport", "DvfsActuator"]

#: Bound on re-issues of a verified-lost command; the k-th retry waits
#: ``2^(k−1)`` cycles (exponential backoff).
MAX_RETRIES = 3
#: Ceiling on any single retry's backoff wait, cycles, so a deep retry
#: chain (or a long meter outage stretching the control cadence) cannot
#: schedule a retry absurdly far in the future.
MAX_BACKOFF_CYCLES = 16


@dataclass(frozen=True)
class ActuationReport:
    """What happened to one decision's batch of DVFS commands.

    Attributes:
        commands: Pairs ``(i, l)`` the decision addressed.
        effective: Commands that landed and changed the node's level.
        noop: Commands that landed but found the node already at the
            commanded level (previously counted silently as "sent").
        suppressed: Commands clamped to no-ops by the never-upgrade-on-
            stale-data guard.
        lost: Commands that failed readback verification this cycle
            (queued for re-issue unless retries are exhausted).
        delayed: Commands in flight, landing in a later cycle.
        fenced: Commands rejected because their issuer's epoch is not
            the actuator's current fencing epoch (deposed controller).
    """

    commands: int = 0
    effective: int = 0
    noop: int = 0
    suppressed: int = 0
    lost: int = 0
    delayed: int = 0
    fenced: int = 0

    @property
    def landed(self) -> int:
        """Commands that reached the node this cycle (any outcome)."""
        return self.effective + self.noop + self.suppressed


_EMPTY_REPORT = ActuationReport()


@dataclass
class _PendingCommand:
    """One in-flight or to-be-retried DVFS command."""

    node_id: int
    level: int
    raise_ok: bool
    attempts: int  #: issue attempts made so far (first issue = 1)
    due_cycle: int
    epoch: int = 0  #: fencing epoch of the issuing manager


class DvfsActuator:
    """Applies :class:`~repro.core.capping.CappingDecision` to the state.

    Args:
        state: The cluster state to actuate.
        fault_injector: Optional fault injector deciding per-command
            loss/delay; ``None`` (the default) actuates perfectly.
        obs: Observability facade; when its metric registry is live the
            actuator's statistics are mirrored as export-time collected
            series (zero per-command cost).
    """

    def __init__(
        self,
        state: ClusterState,
        fault_injector: FaultInjector | None = None,
        obs: Observability | None = None,
    ) -> None:
        self._state = state
        self._injector = fault_injector
        self._cycle = 0
        self._epoch = 0
        self._pending: list[_PendingCommand] = []
        self._live_raise_ok: np.ndarray | None = None
        self._commands_sent = 0
        self._levels_lowered = 0
        self._levels_raised = 0
        self._emergencies = 0
        self._effective = 0
        self._noops = 0
        self._suppressed = 0
        self._lost = 0
        self._retried = 0
        self._abandoned = 0
        self._fenced = 0
        self._last_landing: tuple[int, int] | None = None  #: (cycle, epoch)
        self._epoch_conflicts = 0
        self._register_metrics(resolve_obs(obs))

    def _register_metrics(self, obs: Observability) -> None:
        """Mirror the actuation statistics as collected metric series.

        Re-registration (a successor manager sharing the live actuator
        after failover) rebinds the callbacks, so the exported values
        always read the live object.
        """
        if not obs.metrics_on:
            return
        reg = obs.metrics
        by_result = {
            "effective": lambda: float(self._effective),
            "noop": lambda: float(self._noops),
            "suppressed": lambda: float(self._suppressed),
            "lost": lambda: float(self._lost),
            "abandoned": lambda: float(self._abandoned),
            "fenced": lambda: float(self._fenced),
        }
        for result, fn in by_result.items():
            reg.counter_func(
                "repro_dvfs_commands_total",
                "DVFS commands by final outcome",
                fn,
                labels={"result": result},
            )
        reg.counter_func(
            "repro_dvfs_levels_total",
            "Cumulative DVFS level steps by direction",
            lambda: float(self._levels_lowered),
            labels={"direction": "lower"},
        )
        reg.counter_func(
            "repro_dvfs_levels_total",
            "Cumulative DVFS level steps by direction",
            lambda: float(self._levels_raised),
            labels={"direction": "raise"},
        )
        reg.counter_func(
            "repro_dvfs_retried_total",
            "Commands that landed only after at least one re-issue",
            lambda: float(self._retried),
        )
        reg.counter_func(
            "repro_dvfs_emergencies_total",
            "Red-state (emergency) actuations",
            lambda: float(self._emergencies),
        )
        reg.counter_func(
            "repro_fencing_epoch_conflicts_total",
            "Cycles in which two epochs landed commands (must stay 0)",
            lambda: float(self._epoch_conflicts),
        )
        reg.gauge_func(
            "repro_dvfs_pending_commands",
            "Commands queued (delayed or awaiting retry)",
            lambda: float(len(self._pending)),
        )
        reg.gauge_func(
            "repro_fencing_epoch",
            "Current actuator fencing epoch",
            lambda: float(self._epoch),
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def commands_sent(self) -> int:
        """Total per-node DVFS commands issued (first issues only)."""
        return self._commands_sent

    @property
    def levels_lowered(self) -> int:
        """Cumulative levels removed across all degrade commands."""
        return self._levels_lowered

    @property
    def levels_raised(self) -> int:
        """Cumulative levels restored across all upgrade commands."""
        return self._levels_raised

    @property
    def emergencies(self) -> int:
        """Number of red-state (emergency) actuations."""
        return self._emergencies

    @property
    def effective_commands(self) -> int:
        """Commands that landed and changed a level."""
        return self._effective

    @property
    def noop_commands(self) -> int:
        """Commands that landed on a node already at the commanded level."""
        return self._noops

    @property
    def suppressed_commands(self) -> int:
        """Commands clamped by the never-upgrade-on-stale guard."""
        return self._suppressed

    @property
    def lost_commands(self) -> int:
        """Loss events across first issues and retries."""
        return self._lost

    @property
    def retried_commands(self) -> int:
        """Commands that landed only after at least one re-issue."""
        return self._retried

    @property
    def abandoned_commands(self) -> int:
        """Commands dropped after exhausting their retries."""
        return self._abandoned

    @property
    def fenced_commands(self) -> int:
        """Commands rejected by the fencing epoch (deposed issuer)."""
        return self._fenced

    @property
    def pending_commands(self) -> int:
        """Commands currently queued (delayed or awaiting retry)."""
        return len(self._pending)

    @property
    def stale_pending_commands(self) -> int:
        """Queued commands whose issuer epoch is no longer current.

        These will be fenced when they come due (or superseded); they
        can never land.
        """
        return sum(1 for p in self._pending if p.epoch != self._epoch)

    @property
    def epoch_conflicts(self) -> int:
        """Cycles in which commands from two different epochs landed.

        The fencing invariant makes this impossible — a landing always
        carries the current epoch and the epoch only advances between
        takeovers — so any non-zero value marks a broken invariant.
        Exposed so the failover benchmarks can assert it stayed zero.
        """
        return self._epoch_conflicts

    # ------------------------------------------------------------------
    # Fencing epoch
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The current fencing epoch (0 until the first takeover)."""
        return self._epoch

    def advance_epoch(self) -> int:
        """Start a new fencing epoch and return it.

        Called by the HA layer when a successor manager takes over.
        Everything still queued from previous epochs becomes
        unlandable: it is fenced when due, rather than purged now, so
        the accounting reflects *when* each zombie command actually
        arrived at the node.
        """
        self._epoch += 1
        return self._epoch

    # ------------------------------------------------------------------
    # The cycle clock: land delayed/retried commands
    # ------------------------------------------------------------------
    def begin_cycle(self, raise_ok: np.ndarray | None = None) -> int:
        """Advance one control cycle and flush due in-flight commands.

        Called by the manager once per cycle, after the telemetry sweep,
        so a late-landing raise is clamped against the *current* cycle's
        staleness (``raise_ok``) as well as the freshness recorded when
        the command was issued — a node that went stale while its
        command was in flight can still not be upgraded.

        Args:
            raise_ok: This cycle's per-node raise permission mask (see
                :meth:`apply`); ``None`` defers to issue-time freshness
                alone.

        Returns:
            Number of commands that landed this flush.
        """
        self._cycle += 1
        self._live_raise_ok = raise_ok
        if not self._pending:
            return 0
        due = [p for p in self._pending if p.due_cycle <= self._cycle]
        if not due:
            return 0
        self._pending = [p for p in self._pending if p.due_cycle > self._cycle]
        # Fence zombie commands from deposed epochs before they can
        # touch the machine (and before they consume loss/delay draws —
        # the network outcome of a rejected command is irrelevant).
        fenced = [p for p in due if p.epoch != self._epoch]
        self._fenced += len(fenced)
        due = [p for p in due if p.epoch == self._epoch]
        if not due:
            return 0
        if self._injector is not None:
            ids = np.asarray([p.node_id for p in due], dtype=np.int64)
            lost, delayed = self._injector.command_outcomes(ids)
        else:  # pragma: no cover - pending implies an injector
            lost = delayed = np.zeros(len(due), dtype=bool)
        landed = 0
        for k, cmd in enumerate(due):
            if lost[k]:
                self._lost += 1
                self._requeue_or_abandon(cmd)
            elif delayed[k]:
                cmd.due_cycle = self._cycle + self._injector.command_delay_cycles
                self._pending.append(cmd)
            else:
                self._land(cmd)
                landed += 1
        return landed

    def _requeue_or_abandon(self, cmd: _PendingCommand) -> None:
        cmd.attempts += 1
        if cmd.attempts > 1 + MAX_RETRIES:
            self._abandoned += 1
            return
        # Exponential backoff: the k-th retry waits 2^(k-1) cycles,
        # capped so deep retry chains stay within a bounded horizon.
        backoff = min(2 ** (cmd.attempts - 2), MAX_BACKOFF_CYCLES)
        cmd.due_cycle = self._cycle + backoff
        self._pending.append(cmd)

    def _note_landing(self, epoch: int) -> None:
        """Track landings per cycle to witness the one-epoch invariant."""
        if (
            self._last_landing is not None
            and self._last_landing[0] == self._cycle
            and self._last_landing[1] != epoch
        ):
            self._epoch_conflicts += 1
        self._last_landing = (self._cycle, epoch)

    def _land(self, cmd: _PendingCommand) -> None:
        """Write one late command, re-applying the raise clamp."""
        self._note_landing(cmd.epoch)
        current = int(self._state.level[cmd.node_id])
        target = cmd.level
        allow_raise = cmd.raise_ok and (
            self._live_raise_ok is None or bool(self._live_raise_ok[cmd.node_id])
        )
        if target > current and not allow_raise:
            self._suppressed += 1
            return
        if target == current:
            self._noops += 1
        else:
            self._state.set_level(cmd.node_id, target)
            self._effective += 1
            if target < current:
                self._levels_lowered += current - target
            else:
                self._levels_raised += target - current
        if cmd.attempts > 1:
            self._retried += 1

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------
    def apply(
        self,
        decision: CappingDecision,
        raise_ok: np.ndarray | None = None,
        epoch: int | None = None,
    ) -> ActuationReport:
        """Issue the decision's DVFS commands and verify by readback.

        Args:
            decision: The capping decision to actuate.
            raise_ok: Optional per-node mask (over *all* node ids);
                where False, a command may not raise that node's actual
                level (its telemetry is stale or sensing is degraded).
                ``None`` permits raises everywhere — the fault-free
                contract, where snapshot and actual levels coincide.
            epoch: The issuing manager's fencing epoch; ``None`` (the
                default, for non-HA callers) means the current epoch.
                A batch from any other epoch is rejected wholesale.

        Returns:
            The batch's :class:`ActuationReport`.

        Raises:
            PowerManagementError: if a command addresses a privileged
                (uncontrollable) node — by construction that cannot
                happen with targets drawn from ``A_candidate``, so it
                indicates a wiring bug and must not be silently ignored.
        """
        if decision.action is CappingAction.NONE or decision.num_targets == 0:
            return _EMPTY_REPORT
        ids = decision.node_ids
        n = len(ids)
        if epoch is not None and int(epoch) != self._epoch:
            # A deposed manager's whole batch bounces off the fence; the
            # machine is untouched and no pending state is disturbed.
            self._fenced += n
            return ActuationReport(commands=n, fenced=n)
        if np.count_nonzero(self._state.controllable[ids]) != n:
            raise PowerManagementError(
                "capping decision addresses a privileged node"
            )
        # A fresh command supersedes anything still in flight for the
        # same nodes — the controller's latest word wins.  A superseded
        # command from a deposed epoch counts as fenced: it was in
        # flight at takeover and has now been rejected.
        if self._pending:
            addressed = set(ids.tolist())
            kept: list[_PendingCommand] = []
            for p in self._pending:
                if p.node_id in addressed:
                    if p.epoch != self._epoch:
                        self._fenced += 1
                else:
                    kept.append(p)
            self._pending = kept

        lost: np.ndarray | None = None
        delayed: np.ndarray | None = None
        if self._injector is None and raise_ok is None:
            # No command can be lost, delayed or clamped: the whole
            # batch lands as commanded.
            d_ids, d_levels = ids, decision.new_levels
            suppressed = 0
        else:
            if self._injector is not None:
                lost, delayed = self._injector.command_outcomes(ids)
            else:
                lost = delayed = np.zeros(n, dtype=bool)
            deliver = ~(lost | delayed)
            current = self._state.level[ids]
            target = np.array(decision.new_levels, dtype=np.int64)
            allow = np.ones(n, dtype=bool) if raise_ok is None else raise_ok[ids]
            blocked = (target > current) & ~allow
            target[blocked] = current[blocked]
            d_ids, d_levels = ids[deliver], target[deliver]
            suppressed = int(np.count_nonzero(blocked & deliver))

        if len(d_ids):
            self._note_landing(self._epoch)
        before = self._state.level[d_ids]
        self._state.set_levels(d_ids, d_levels)
        # Readback verification: what actually landed this cycle.
        delta = self._state.level[d_ids] - before
        raised = int(np.add.reduce(np.maximum(delta, 0)))
        self._commands_sent += n
        self._levels_lowered += raised - int(np.add.reduce(delta))
        self._levels_raised += raised
        effective = int(np.count_nonzero(delta))
        noop = int(len(d_ids) - effective - suppressed)
        self._effective += effective
        self._noops += noop
        self._suppressed += suppressed
        if decision.action is CappingAction.EMERGENCY:
            self._emergencies += 1
        if lost is None or delayed is None:  # the fault-free batch is done
            return ActuationReport(commands=n, effective=effective, noop=noop)

        # Queue losses for re-issue and delays for late landing.  The
        # *commanded* level is kept (not the clamped one): the clamp is
        # re-evaluated against the node's actual level at landing time.
        n_lost = int(np.count_nonzero(lost))
        n_delayed = int(np.count_nonzero(delayed))
        self._lost += n_lost
        levels = decision.new_levels
        for k in lost.nonzero()[0]:
            self._requeue_or_abandon(
                _PendingCommand(
                    node_id=int(ids[k]),
                    level=int(levels[k]),
                    raise_ok=bool(allow[k]),
                    attempts=1,
                    due_cycle=self._cycle,
                    epoch=self._epoch,
                )
            )
        if n_delayed:
            due = self._cycle + self._injector.command_delay_cycles
            for k in delayed.nonzero()[0]:
                self._pending.append(
                    _PendingCommand(
                        node_id=int(ids[k]),
                        level=int(levels[k]),
                        raise_ok=bool(allow[k]),
                        attempts=1,
                        due_cycle=due,
                        epoch=self._epoch,
                    )
                )
        return ActuationReport(
            commands=n,
            effective=effective,
            noop=noop,
            suppressed=suppressed,
            lost=n_lost,
            delayed=n_delayed,
        )

    # ------------------------------------------------------------------
    # Release (end-of-run teardown, still epoch-fenced)
    # ------------------------------------------------------------------
    def release(
        self,
        node_ids: np.ndarray,
        level: int,
        epoch: int | None = None,
    ) -> int:
        """Restore ``node_ids`` to ``level`` through the fenced path.

        End-of-episode teardown is still a command to the machine, so it
        goes through the same fence as :meth:`apply`: a deposed manager
        cannot "release" nodes it no longer owns.  Unlike :meth:`apply`
        it is not a control command — it bypasses loss/delay injection
        and the regular command statistics (the run is over; there is no
        later cycle to retry in).

        Args:
            node_ids: Nodes to restore (typically ``A_candidate``).
            level: The level to restore them to (typically the top).
            epoch: The caller's fencing epoch; ``None`` means current.

        Returns:
            The number of nodes written (0 when the batch was fenced).
        """
        n = len(node_ids)
        if n == 0:
            return 0
        if epoch is not None and int(epoch) != self._epoch:
            self._fenced += n
            return 0
        self._state.set_levels(node_ids, level)
        return n

    # ------------------------------------------------------------------
    # Crash recovery (repro.ha state journal)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """Cycle clock, counters and the in-flight queue, journal-ready.

        ``epoch`` is deliberately absent: the fencing epoch belongs to
        the command path itself, not to any one manager incarnation, and
        is advanced — never restored — at takeover.
        """
        return {
            "cycle": self._cycle,
            "pending": tuple(
                [(p.node_id, p.level, p.raise_ok, p.attempts, p.due_cycle, p.epoch)
                 for p in self._pending]
            ),
            "counters": {
                "commands_sent": self._commands_sent,
                "levels_lowered": self._levels_lowered,
                "levels_raised": self._levels_raised,
                "emergencies": self._emergencies,
                "effective": self._effective,
                "noops": self._noops,
                "suppressed": self._suppressed,
                "lost": self._lost,
                "retried": self._retried,
                "abandoned": self._abandoned,
                "fenced": self._fenced,
            },
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Adopt a :meth:`state_dict` (fresh actuator of a successor).

        When the successor shares the live actuator object (the normal
        HA wiring — in-flight commands survive the controller, they are
        *in the network*), restoring is an idempotent overwrite with the
        journal's identical view.
        """
        self._cycle = int(state["cycle"])
        self._pending = [
            _PendingCommand(
                node_id=int(n), level=int(lv), raise_ok=bool(r),
                attempts=int(a), due_cycle=int(d), epoch=int(e),
            )
            for n, lv, r, a, d, e in state["pending"]
        ]
        c = state["counters"]
        self._commands_sent = int(c["commands_sent"])
        self._levels_lowered = int(c["levels_lowered"])
        self._levels_raised = int(c["levels_raised"])
        self._emergencies = int(c["emergencies"])
        self._effective = int(c["effective"])
        self._noops = int(c["noops"])
        self._suppressed = int(c["suppressed"])
        self._lost = int(c["lost"])
        self._retried = int(c["retried"])
        self._abandoned = int(c["abandoned"])
        self._fenced = int(c["fenced"])
