"""Tests for the collector's last-known-good cache and staleness signals."""

import numpy as np
import pytest

from repro.core import NodeSets
from repro.errors import TelemetryError
from repro.telemetry import TelemetryCollector
from repro.telemetry.collector import TelemetrySnapshot


class _ScriptedDrops:
    """Fault-injector stand-in: a queue of per-sweep drop masks."""

    def __init__(self, masks):
        self._masks = list(masks)

    def telemetry_drop_mask(self, node_ids):
        if self._masks:
            return np.asarray(self._masks.pop(0), dtype=bool)
        return np.zeros(len(node_ids), dtype=bool)

    def corrupt_telemetry(self, node_ids, cpu_util, mem_frac, nic_frac):
        return np.zeros(len(node_ids), dtype=bool)


def _collector(cluster, injector=None):
    sets = NodeSets(cluster)
    return TelemetryCollector(cluster.state, sets.candidates, injector)


def test_snapshot_defaults_are_fault_free():
    snap = TelemetrySnapshot(
        time=0.0,
        node_ids=np.array([0, 1]),
        level=np.array([9, 9]),
        cpu_util=np.array([0.5, 0.5]),
        mem_frac=np.array([0.2, 0.2]),
        nic_frac=np.array([0.1, 0.1]),
        job_id=np.array([0, 0]),
    )
    np.testing.assert_array_equal(snap.age, np.zeros(2))
    assert snap.coverage == 1.0
    assert not snap.stale_mask(0.5).any()


def test_snapshot_age_misalignment_rejected():
    with pytest.raises(TelemetryError):
        TelemetrySnapshot(
            time=0.0,
            node_ids=np.array([0, 1]),
            level=np.array([9, 9]),
            cpu_util=np.array([0.5, 0.5]),
            mem_frac=np.array([0.2, 0.2]),
            nic_frac=np.array([0.1, 0.1]),
            job_id=np.array([0, 0]),
            age=np.zeros(3),
        )


def test_snapshot_coverage_validated():
    with pytest.raises(TelemetryError):
        TelemetrySnapshot(
            time=0.0,
            node_ids=np.array([0]),
            level=np.array([9]),
            cpu_util=np.array([0.5]),
            mem_frac=np.array([0.2]),
            nic_frac=np.array([0.1]),
            job_id=np.array([0]),
            coverage=1.5,
        )


def test_empty_snapshot_coverage_is_vacuously_full():
    snap = TelemetrySnapshot(
        time=0.0,
        node_ids=np.array([], dtype=np.int64),
        level=np.array([], dtype=np.int64),
        cpu_util=np.array([]),
        mem_frac=np.array([]),
        nic_frac=np.array([]),
        job_id=np.array([], dtype=np.int64),
    )
    assert snap.size == 0
    assert snap.coverage == 1.0
    assert not snap.stale_mask(0.0).any()


class _ForbiddenDrops:
    """Injector stand-in that must never be consulted."""

    def telemetry_drop_mask(self, node_ids):
        raise AssertionError("drop mask requested for an empty candidate set")


def test_empty_candidate_set_has_full_coverage_under_faults(busy_cluster):
    # Convention under test: an empty candidate set is vacuously fully
    # covered (coverage 1.0, no ages), and the injector is never asked
    # for a drop mask — so the manager's forced-red blackout rung can
    # never fire on the *absence* of candidates, only on dark ones.
    collector = TelemetryCollector(
        busy_cluster.state,
        np.array([], dtype=np.int64),
        _ForbiddenDrops(),
    )
    for t in (1.0, 2.0, 3.0):
        snap = collector.collect(t)
    assert snap.size == 0
    assert snap.coverage == 1.0
    assert snap.age.shape == (0,)
    assert collector.dropped_samples == 0
    assert collector.collections == 3


def test_collect_without_injector_is_fresh(busy_cluster):
    collector = _collector(busy_cluster)
    snap = collector.collect(1.0)
    assert snap.coverage == 1.0
    np.testing.assert_array_equal(snap.age, np.zeros(snap.size))
    assert collector.dropped_samples == 0


def test_dropped_sample_served_from_last_known_good(busy_cluster):
    n = busy_cluster.state.num_nodes
    drop_node3 = np.zeros(n, dtype=bool)
    drop_node3[3] = True
    collector = _collector(
        busy_cluster, _ScriptedDrops([np.zeros(n, dtype=bool), drop_node3])
    )
    first = collector.collect(1.0)
    # Change node 3's true load, then drop its sample: the snapshot must
    # still show the old (cached) values.
    busy_cluster.state.set_load(np.array([3]), 0.99, 0.88, 0.77)
    second = collector.collect(2.0)
    assert second.cpu_util[3] == first.cpu_util[3] != 0.99
    assert second.age[3] == pytest.approx(1.0)
    assert second.age[0] == 0.0
    assert second.coverage == pytest.approx((n - 1) / n)
    assert collector.dropped_samples == 1


def test_age_accumulates_over_consecutive_drops(busy_cluster):
    n = busy_cluster.state.num_nodes
    drop5 = np.zeros(n, dtype=bool)
    drop5[5] = True
    collector = _collector(
        busy_cluster,
        _ScriptedDrops([np.zeros(n, dtype=bool)] + [drop5.copy()] * 3),
    )
    collector.collect(0.0)
    for t in (1.0, 2.0, 3.0):
        snap = collector.collect(t)
    assert snap.age[5] == pytest.approx(3.0)
    assert snap.stale_mask(2.5)[5]
    assert not snap.stale_mask(2.5)[0]


def test_node_dropped_on_first_sweep_is_infinitely_stale(busy_cluster):
    n = busy_cluster.state.num_nodes
    drop0 = np.zeros(n, dtype=bool)
    drop0[0] = True
    collector = _collector(busy_cluster, _ScriptedDrops([drop0]))
    snap = collector.collect(5.0)
    assert np.isinf(snap.age[0])
    assert snap.stale_mask(1e9)[0]
    # The primed deploy-time cache still provides a plausible row.
    assert snap.level[0] == busy_cluster.state.level[0]


def test_fresh_report_resets_age(busy_cluster):
    n = busy_cluster.state.num_nodes
    drop7 = np.zeros(n, dtype=bool)
    drop7[7] = True
    collector = _collector(
        busy_cluster,
        _ScriptedDrops([drop7.copy(), drop7.copy(), np.zeros(n, dtype=bool)]),
    )
    collector.collect(1.0)
    collector.collect(2.0)
    snap = collector.collect(3.0)
    assert snap.age[7] == 0.0
    assert snap.coverage == 1.0


def test_restore_state_rebuilds_lkg_cache(busy_cluster):
    """A successor collector restored from a journaled snapshot behaves
    exactly like the crashed one: cached rows, ages, and the previous/
    current chaining all line up."""
    n = busy_cluster.state.num_nodes
    drop3 = np.zeros(n, dtype=bool)
    drop3[3] = True
    primary = _collector(
        busy_cluster, _ScriptedDrops([np.zeros(n, dtype=bool), drop3])
    )
    primary.collect(1.0)
    last = primary.collect(2.0)

    successor = _collector(
        busy_cluster, _ScriptedDrops([drop3.copy()])
    )
    successor.restore_state(
        last,
        collections=primary.collections,
        dropped_samples=primary.dropped_samples,
    )
    assert successor.collections == 2
    assert successor.dropped_samples == 1
    assert successor.current is last
    assert successor.previous is None

    # Node 3 drops again on the first post-recovery sweep: it must be
    # served from the journal-reconstructed cache with age measured from
    # its *original* last report (t=1.0), not from the recovery point.
    snap = successor.collect(4.0)
    assert snap.cpu_util[3] == last.cpu_util[3]
    assert snap.age[3] == pytest.approx(3.0)
    assert successor.previous is last


def test_restore_state_rejects_foreign_candidate_set(busy_cluster):
    primary = _collector(busy_cluster, _ScriptedDrops([]))
    last = primary.collect(1.0)
    sets = NodeSets(busy_cluster)
    other = TelemetryCollector(
        busy_cluster.state, sets.candidates[:4], _ScriptedDrops([])
    )
    with pytest.raises(TelemetryError):
        other.restore_state(last)


def test_restore_state_with_no_snapshot_keeps_deploy_priming(busy_cluster):
    collector = _collector(busy_cluster, _ScriptedDrops([]))
    collector.restore_state(None, collections=0)
    assert collector.current is None
    snap = collector.collect(1.0)
    assert snap.coverage == 1.0
