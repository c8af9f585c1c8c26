"""The actuator's fault-free path against its general path.

With no fault injector and no raise mask, ``DvfsActuator.apply`` lands
the whole batch as commanded and skips the loss, delay and clamp masks.
An all-true ``raise_ok`` sends the same batches through the general path,
where nothing can be lost, delayed or clamped either.  Hypothesis applies
the same random decisions to both; every report, every counter and the
resulting levels must agree.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import DvfsActuator, PowerState
from repro.core.capping import CappingAction, CappingDecision

NUM_NODES = 24
TOP = Cluster.tianhe_1a(1).spec.top_level

_DECISION = st.tuples(
    st.sampled_from(list(CappingAction)),
    st.lists(
        st.tuples(st.integers(0, NUM_NODES - 1), st.integers(0, TOP)),
        max_size=NUM_NODES,
        unique_by=lambda pair: pair[0],
    ),
)


def _decision(action: CappingAction, pairs: list[tuple[int, int]]) -> CappingDecision:
    ordered = sorted(pairs)
    return CappingDecision(
        state=PowerState.YELLOW,
        action=action,
        node_ids=np.array([i for i, _ in ordered], dtype=np.int64),
        new_levels=np.array([lv for _, lv in ordered], dtype=np.int64),
        time_in_green=0,
    )


@settings(max_examples=200, deadline=None)
@given(
    start=st.lists(st.integers(0, TOP), min_size=NUM_NODES, max_size=NUM_NODES),
    decisions=st.lists(_DECISION, min_size=1, max_size=12),
)
def test_fault_free_path_matches_general_path(
    start: list[int], decisions: list[tuple[CappingAction, list[tuple[int, int]]]]
) -> None:
    clusters = [Cluster.tianhe_1a(NUM_NODES) for _ in range(2)]
    for cluster in clusters:
        cluster.state.set_levels(np.arange(NUM_NODES), np.array(start))
    fast, general = (DvfsActuator(c.state) for c in clusters)
    everywhere = np.ones(NUM_NODES, dtype=bool)
    for action, pairs in decisions:
        decision = _decision(action, pairs)
        fast.begin_cycle()
        general.begin_cycle(raise_ok=everywhere)
        assert fast.apply(decision) == general.apply(decision, raise_ok=everywhere)
        assert fast.state_dict() == general.state_dict()
        assert clusters[0].state.level.tolist() == clusters[1].state.level.tolist()
