"""Quarantine-envelope substitution in the collector, on both engines.

When the integrity validator quarantines a node, the collector replaces
its telemetry row with the conservative worst-case envelope: full
utilisation at the node's known DVFS level, age pinned to infinity.  The
substitution happens *after* the engine's telemetry sweep, so it must be
byte-identical regardless of which engine gathered the raw samples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.power import NodePowerEstimator, PowerModel
from repro.telemetry import (
    IntegrityConfig,
    TelemetryCollector,
    TelemetryValidator,
)
from repro.telemetry import integrity

_CFG = IntegrityConfig()

_BAD_NODE = 3


@pytest.fixture(autouse=True)
def _harsh_hard_penalty(monkeypatch: pytest.MonkeyPatch) -> None:
    """One hard failure must push trust below the quarantine line:
    1.0 - 0.8 = 0.2 < quarantine_trust (0.30 default)."""
    monkeypatch.setattr(integrity, "HARD_PENALTY", 0.8)


def _make_collector(engine: str) -> tuple[Cluster, TelemetryCollector]:
    cluster = Cluster.tianhe_1a(num_nodes=8, engine=engine)
    ids = np.arange(8)
    cluster.state.set_load(ids, cpu_util=0.5, mem_frac=0.3, nic_frac=0.1)
    estimator = NodePowerEstimator(PowerModel(cluster.spec), engine=engine)
    validator = TelemetryValidator(_CFG, estimator, ids, cluster.spec.top_level)
    collector = TelemetryCollector(
        cluster.state, ids, validator=validator, engine=engine
    )
    return cluster, collector


def _poison(cluster: Cluster) -> None:
    # A superunity CPU reading is a stage-1 hard failure.
    cluster.state.cpu_util[_BAD_NODE] = 1.7


@pytest.mark.parametrize("engine", ["vector", "object"])
def test_quarantined_row_becomes_worst_case_envelope(engine: str) -> None:
    cluster, collector = _make_collector(engine)
    known_level = int(cluster.state.level[_BAD_NODE])
    _poison(cluster)
    snapshot = collector.collect(1.0)

    assert collector.validator is not None
    assert collector.validator.quarantined[_BAD_NODE]
    assert snapshot.level[_BAD_NODE] == known_level
    assert snapshot.cpu_util[_BAD_NODE] == 1.0
    assert snapshot.mem_frac[_BAD_NODE] == 1.0
    assert snapshot.nic_frac[_BAD_NODE] == 1.0
    assert snapshot.age[_BAD_NODE] == np.inf


@pytest.mark.parametrize("engine", ["vector", "object"])
def test_healthy_rows_are_untouched_by_the_envelope(engine: str) -> None:
    cluster, collector = _make_collector(engine)
    _poison(cluster)
    snapshot = collector.collect(1.0)
    healthy = np.arange(8) != _BAD_NODE
    np.testing.assert_array_equal(
        snapshot.cpu_util[healthy], cluster.state.cpu_util[healthy]
    )
    np.testing.assert_array_equal(snapshot.age[healthy], np.zeros(7))
    assert snapshot.coverage == pytest.approx(7 / 8)


def test_envelope_snapshots_bit_identical_across_engines() -> None:
    snapshots = {}
    for engine in ("vector", "object"):
        cluster, collector = _make_collector(engine)
        _poison(cluster)
        collector.collect(1.0)
        # A second sweep: the quarantined node keeps the envelope while
        # its trust recovers, the rest refresh normally.
        snapshots[engine] = collector.collect(2.0)
    v, o = snapshots["vector"], snapshots["object"]
    for field in ("node_ids", "level", "cpu_util", "mem_frac", "nic_frac", "job_id", "age"):
        a, b = getattr(v, field), getattr(o, field)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), field
    assert repr(v.coverage) == repr(o.coverage)
