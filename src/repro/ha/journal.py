"""The controller state journal: append-only records + compacted checkpoints.

Algorithm 1 is stateful: ``A_degraded``, the green streak ``Time_g``,
the learned ``P_peak`` thresholds, the collector's last-known-good cache
and the manager's degraded-mode latches all live in the controller
process.  If that process dies, a blank successor would restart every
degraded node's history from zero — upgrading nodes it has no basis to
upgrade, re-learning thresholds from scratch, and treating week-old
telemetry as fresh.

The journal makes the controller crash-consistent the way databases do:

* every completed control cycle appends one immutable
  :class:`CycleRecord` — the cycle's *outputs* (the manager's
  :class:`~repro.core.manager.CycleReport`: classified state, commanded
  pairs, observed power) plus post-cycle counters and the sweep's
  snapshot.  Outputs, not inputs: recovery **replays decisions**, it
  never re-runs policies, so stochastic policies cannot consume RNG
  draws during recovery and diverge from the pre-crash timeline;
* every ``compact_every`` records the manager folds its full state into
  a :class:`ControllerCheckpoint` and the journal drops the records the
  checkpoint subsumes, bounding both memory and recovery replay length;
* :meth:`StateJournal.recover` returns the latest checkpoint plus every
  record after it; :meth:`repro.core.manager.PowerManager.restore_state`
  folds the records onto the checkpoint to land exactly on the
  pre-crash state.

A crash mid-cycle loses at most that one uncommitted cycle — the append
happens only after actuation completes — which mirrors a write-ahead
log's torn-tail rule: the tail record is either wholly present or
wholly absent, never half-applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import PowerManagementError
from repro.telemetry.collector import TelemetrySnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.manager import CycleReport

__all__ = ["CycleRecord", "ControllerCheckpoint", "JournalRecovery", "StateJournal"]


@dataclass(frozen=True)
class CycleRecord:
    """One completed control cycle, as journaled.

    Attributes:
        cycle: The manager's 1-based cycle index after this cycle.
        report: The :class:`~repro.core.manager.CycleReport` the cycle
            returned.  Replay folds its power (only metered readings
            feed threshold learning, exactly as the live cycle did), its
            classified state after any forced-red override, and its
            decision's ordered pairs ``(i, l)`` and ``Time_g``.
        blackout_streak: The manager's sub-coverage streak after this
            cycle (the forced-red rung's latch).
        snapshot: The cycle's telemetry snapshot.  The last record's
            snapshot *is* the recovered last-known-good cache: its rows
            equal the cache rows by construction and each node's last
            report time is ``snapshot.time − age``.
        actuator: :meth:`DvfsActuator.state_dict` after this cycle —
            the in-flight retry queue and counters, so a journal
            restored onto a *fresh* actuator (cold restore in a new
            process) reconstructs the queue; the warm shared-actuator
            wiring ignores it.
    """

    cycle: int
    report: CycleReport
    blackout_streak: int
    snapshot: TelemetrySnapshot
    actuator: dict


@dataclass(frozen=True)
class ControllerCheckpoint:
    """A compacted full controller state at one cycle boundary.

    Everything :class:`CycleRecord` folding needs a base for; produced
    by :meth:`repro.core.manager.PowerManager.checkpoint`.

    Attributes:
        cycle: Manager cycle index the checkpoint describes.
        time: Simulated time of that cycle (0.0 before any cycle).
        thresholds: :meth:`ThresholdController.state_dict` section.
        degraded_mask: ``A_degraded`` as a tuple of bools over all ids.
        time_in_green: ``Time_g``.
        state_counts: Cycle counts per power-state value string.
        forced_red_cycles / estimated_cycles / blackout_streak: The
            degraded-mode ladder's counters and latch.
        snapshot: The collector's current snapshot (None before the
            first sweep).
        collections / dropped_samples: Collector accounting.
        last_metered_power / last_metered_snapshot: The estimation
            anchor for meter-outage cycles.
        actuator: :meth:`DvfsActuator.state_dict` section — counters and
            the in-flight command queue.  In the shared-actuator HA
            wiring this is informational (the live queue survives the
            controller), but a journal restored onto a *fresh* actuator
            reconstructs the queue from here.

    The recovery hold (``_recovery_pending``) is deliberately absent:
    a restored manager always starts with the full re-observation hold,
    even if the crashed manager was itself mid-recovery.
    """

    cycle: int
    time: float
    thresholds: dict
    degraded_mask: tuple[bool, ...]
    time_in_green: int
    state_counts: dict[str, int]
    forced_red_cycles: int
    estimated_cycles: int
    blackout_streak: int
    snapshot: TelemetrySnapshot | None
    collections: int
    dropped_samples: int
    last_metered_power: float | None
    last_metered_snapshot: TelemetrySnapshot | None
    actuator: dict


@dataclass(frozen=True)
class JournalRecovery:
    """What :meth:`StateJournal.recover` hands a restoring manager."""

    checkpoint: ControllerCheckpoint | None
    records: tuple[CycleRecord, ...]

    @property
    def last_cycle(self) -> int:
        """The cycle index recovery lands on (0 = pristine state)."""
        if self.records:
            return self.records[-1].cycle
        if self.checkpoint is not None:
            return self.checkpoint.cycle
        return 0


class StateJournal:
    """In-memory append-only journal with periodic compaction.

    The simulation's stand-in for a replicated log or journaled file:
    appends are atomic (a record object either is in the list or is
    not), records are immutable, and compaction replaces the prefix with
    a single checkpoint exactly like snapshotting a write-ahead log.

    Args:
        compact_every: Records accumulated before
            :meth:`should_compact` asks the manager for a checkpoint.
    """

    def __init__(self, compact_every: int = 64) -> None:
        if compact_every < 1:
            raise PowerManagementError("compact_every must be >= 1")
        self._compact_every = int(compact_every)
        self._base: ControllerCheckpoint | None = None
        self._records: list[CycleRecord] = []
        self._appended_total = 0
        self._compactions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def base(self) -> ControllerCheckpoint | None:
        """The latest compacted checkpoint (None before the first)."""
        return self._base

    @property
    def records(self) -> tuple[CycleRecord, ...]:
        """Records appended after the current base, oldest first."""
        return tuple(self._records)

    @property
    def size(self) -> int:
        """Records currently held (bounded by ``compact_every``)."""
        return len(self._records)

    @property
    def appended_total(self) -> int:
        """Records appended over the journal's lifetime."""
        return self._appended_total

    @property
    def compactions(self) -> int:
        """Checkpoints folded in so far."""
        return self._compactions

    @property
    def last_cycle(self) -> int:
        """Cycle index of the newest journaled state (0 when empty)."""
        if self._records:
            return self._records[-1].cycle
        if self._base is not None:
            return self._base.cycle
        return 0

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------
    def append(self, record: CycleRecord) -> None:
        """Append one completed cycle's record.

        Raises:
            PowerManagementError: on a record that does not advance the
                journal's cycle index — out-of-order appends mean two
                managers think they own the journal, which the fencing
                layer exists to prevent; the journal refuses rather than
                silently interleaving timelines.
        """
        if record.cycle <= self.last_cycle:
            raise PowerManagementError(
                f"journal append out of order: cycle {record.cycle} after "
                f"{self.last_cycle}"
            )
        self._records.append(record)
        self._appended_total += 1

    def should_compact(self) -> bool:
        """Whether the record tail has grown past ``compact_every``."""
        return len(self._records) >= self._compact_every

    def compact(self, checkpoint: ControllerCheckpoint) -> None:
        """Adopt a checkpoint and drop the records it subsumes.

        Raises:
            PowerManagementError: if the checkpoint is older than the
                journal tail — compacting with a stale checkpoint would
                silently rewind the recovery point.
        """
        if checkpoint.cycle < self.last_cycle:
            raise PowerManagementError(
                f"stale checkpoint: cycle {checkpoint.cycle} < journal "
                f"tail {self.last_cycle}"
            )
        self._base = checkpoint
        self._records = [r for r in self._records if r.cycle > checkpoint.cycle]
        self._compactions += 1

    # ------------------------------------------------------------------
    # The read path
    # ------------------------------------------------------------------
    def recover(self) -> JournalRecovery:
        """The latest checkpoint plus every record after it."""
        return JournalRecovery(checkpoint=self._base, records=tuple(self._records))
