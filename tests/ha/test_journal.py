"""StateJournal mechanics: append ordering, compaction, recovery."""

import numpy as np
import pytest

from repro.core import CappingAction, CappingDecision, CycleReport, PowerState
from repro.errors import PowerManagementError
from repro.ha import ControllerCheckpoint, CycleRecord, StateJournal
from repro.telemetry.collector import TelemetrySnapshot


def _snapshot(t: float) -> TelemetrySnapshot:
    return TelemetrySnapshot(
        time=t,
        node_ids=np.array([0, 1]),
        level=np.array([9, 9]),
        cpu_util=np.array([0.5, 0.5]),
        mem_frac=np.array([0.2, 0.2]),
        nic_frac=np.array([0.1, 0.1]),
        job_id=np.array([0, 0]),
    )


def _record(cycle: int) -> CycleRecord:
    empty = np.empty(0, dtype=np.int64)
    return CycleRecord(
        cycle=cycle,
        report=CycleReport(
            time=float(cycle),
            power_w=1000.0,
            state=PowerState.GREEN,
            decision=CappingDecision(
                PowerState.GREEN, CappingAction.NONE, empty, empty, 0
            ),
            p_low=900.0,
            p_high=1100.0,
        ),
        blackout_streak=0,
        snapshot=_snapshot(float(cycle)),
        actuator={"cycle": cycle, "pending": (), "counters": {}},
    )


def _checkpoint(cycle: int) -> ControllerCheckpoint:
    return ControllerCheckpoint(
        cycle=cycle,
        time=float(cycle),
        thresholds={},
        degraded_mask=(False, False),
        time_in_green=0,
        state_counts={},
        forced_red_cycles=0,
        estimated_cycles=0,
        blackout_streak=0,
        snapshot=_snapshot(float(cycle)),
        collections=cycle,
        dropped_samples=0,
        last_metered_power=1000.0,
        last_metered_snapshot=None,
        actuator={"cycle": cycle, "pending": (), "counters": {}},
    )


def test_append_advances_tail():
    journal = StateJournal(compact_every=4)
    assert journal.last_cycle == 0 and journal.size == 0
    journal.append(_record(1))
    journal.append(_record(2))
    assert journal.last_cycle == 2
    assert journal.size == 2
    assert journal.appended_total == 2


def test_out_of_order_append_rejected():
    journal = StateJournal()
    journal.append(_record(3))
    with pytest.raises(PowerManagementError):
        journal.append(_record(3))  # duplicate cycle
    with pytest.raises(PowerManagementError):
        journal.append(_record(2))  # rewind
    # Gaps are fine (downtime cycles journal nothing).
    journal.append(_record(7))
    assert journal.last_cycle == 7


def test_should_compact_threshold():
    journal = StateJournal(compact_every=3)
    for c in (1, 2):
        journal.append(_record(c))
        assert not journal.should_compact()
    journal.append(_record(3))
    assert journal.should_compact()


def test_compact_drops_subsumed_records():
    journal = StateJournal(compact_every=10)
    for c in (1, 2, 3, 4):
        journal.append(_record(c))
    journal.compact(_checkpoint(4))
    assert journal.base.cycle == 4
    assert journal.records == ()
    assert journal.compactions == 1
    assert journal.appended_total == 4  # lifetime counter unaffected
    assert journal.last_cycle == 4
    # Appends after compaction build a fresh tail on the new base.
    journal.append(_record(5))
    assert [r.cycle for r in journal.records] == [5]
    assert journal.last_cycle == 5


def test_stale_checkpoint_rejected():
    journal = StateJournal()
    for c in (1, 2, 3):
        journal.append(_record(c))
    journal.compact(_checkpoint(3))
    journal.append(_record(4))
    # A checkpoint older than the tail would rewind the recovery point:
    # the journal refuses both the mid-tail and the pre-base variant.
    with pytest.raises(PowerManagementError):
        journal.compact(_checkpoint(2))
    with pytest.raises(PowerManagementError):
        journal.compact(_checkpoint(3))


def test_recover_returns_base_plus_tail():
    journal = StateJournal(compact_every=2)
    recovery = journal.recover()
    assert recovery.checkpoint is None
    assert recovery.records == ()
    assert recovery.last_cycle == 0

    for c in (1, 2):
        journal.append(_record(c))
    journal.compact(_checkpoint(2))
    journal.append(_record(3))
    recovery = journal.recover()
    assert recovery.checkpoint.cycle == 2
    assert [r.cycle for r in recovery.records] == [3]
    assert recovery.last_cycle == 3

    journal.compact(_checkpoint(3))
    recovery = journal.recover()
    assert recovery.records == ()
    assert recovery.last_cycle == 3  # falls back to the checkpoint


def test_compact_every_validated():
    with pytest.raises(PowerManagementError):
        StateJournal(compact_every=0)
