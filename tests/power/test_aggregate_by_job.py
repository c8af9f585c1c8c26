"""Per-job aggregation against an ``np.unique`` reference.

``NodePowerEstimator.aggregate_by_job`` bins job ids offset by the
smallest one (or, for widely spread ids, numbered densely) and sums
with ``np.bincount``.  The reference numbers the ids with ``np.unique``
and sums with the same ``bincount``.  Both must agree bit for bit on
ids, sums and node counts, over dense, sparse and very large ids, idle
nodes and snapshots of a single job.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power import NodePowerEstimator


def _reference(job_id: np.ndarray, values: np.ndarray):
    jid = np.asarray(job_id, dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    mask = jid >= 0
    jid, vals = jid[mask], vals[mask]
    if jid.size == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, np.empty(0, dtype=np.float64), empty_i
    uniq, inverse, counts = np.unique(jid, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=vals, minlength=len(uniq))
    return uniq, sums, counts.astype(np.int64)


_WATTS = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
) | st.floats(min_value=1e-9, max_value=1e-3)


@st.composite
def _snapshot(draw: st.DrawFn) -> tuple[np.ndarray, np.ndarray]:
    """Job ids per node (``-1`` idle) and a wattage per node."""
    base = draw(st.sampled_from([0, 7, 10**6, 2**40, 2**62]))
    spread = draw(st.sampled_from([1, 3, 50, 10**4, 10**9]))
    jobs = draw(
        st.lists(st.integers(0, spread), min_size=1, max_size=12, unique=True)
    )
    ids = [base + j for j in jobs] + [-1]
    nodes = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=160))
    watts = draw(st.lists(_WATTS, min_size=len(nodes), max_size=len(nodes)))
    return np.array(nodes, dtype=np.int64), np.array(watts)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(snapshot=_snapshot())
def test_matches_unique_reference_bit_for_bit(snapshot) -> None:
    job_id, values = snapshot
    table = NodePowerEstimator.aggregate_by_job(job_id, values)
    uniq, sums, counts = _reference(job_id, values)
    assert _same(table.job_ids, uniq)
    assert _same(table.power_w, sums)
    assert _same(table.node_counts, counts)


def test_all_idle_and_single_job_snapshots() -> None:
    idle = NodePowerEstimator.aggregate_by_job(np.full(4, -1), np.ones(4))
    assert len(idle) == 0
    one = NodePowerEstimator.aggregate_by_job(
        np.array([-1, 41, 41, -1, 41]), np.array([9.0, 0.1, 0.2, 9.0, 0.3])
    )
    assert one.job_ids.tolist() == [41]
    assert one.power_w.tolist() == [(0.1 + 0.2) + 0.3]
    assert one.node_counts.tolist() == [3]
    assert 41 in one and one.power_of(41) == (0.1 + 0.2) + 0.3
