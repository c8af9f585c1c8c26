"""Pins the numpy facts the vector engine's blocks of ticks rest on.

Where no manager is attached, ``VectorEngine.step_jobs`` steps a block
of ticks in one array pass, and ``_World.advance`` in
:mod:`repro.experiments.common` evaluates one Formula (1) row per tick.
The block equals tick-by-tick stepping bit for bit only because of
three numpy facts:

1. the row sums of a C-contiguous ``(ticks, N)`` float64 array equal
   ``np.sum`` of each row alone (:func:`canonical_power_sums`);
2. ``np.add.accumulate(axis=0)`` equals adding one row at a time;
3. one ``standard_normal(h·(1+J+M))`` draw equals ``h`` ticks of a
   ``normal(0, σ_mod)`` draw followed by ``standard_normal(J+M)``,
   down to the generator's final state.

Should a numpy release change one, these tests fail here, at the
source, rather than as an opaque equivalence diff.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import canonical_power_sum, canonical_power_sums

_SEED = st.integers(min_value=0, max_value=2**63 - 1)


@settings(max_examples=100, deadline=None)
@given(
    seed=_SEED,
    ticks=st.integers(min_value=1, max_value=600),
    nodes=st.integers(min_value=1, max_value=300),
)
def test_row_sums_equal_per_row_sums(seed: int, ticks: int, nodes: int) -> None:
    rng = np.random.default_rng(seed)
    # Watts spread over many magnitudes, so summation order shows.
    rows = rng.uniform(0.0, 400.0, (ticks, nodes)) * 10.0 ** rng.integers(
        -3, 6, (ticks, nodes)
    )
    per_row = np.array([canonical_power_sum(row) for row in rows])
    assert rows.flags.c_contiguous
    assert rows.sum(axis=1).tobytes() == per_row.tobytes()
    assert canonical_power_sums(rows).tobytes() == per_row.tobytes()


def test_row_sums_equal_per_row_sums_across_the_buffer_size() -> None:
    """numpy reduces long rows in buffered chunks; rows longer than the
    8192-element buffer still sum as ``np.sum`` sums each alone."""
    rng = np.random.default_rng(3)
    rows = rng.uniform(0.0, 1e6, (4, 9000))
    per_row = np.array([np.sum(row) for row in rows])
    assert canonical_power_sums(rows).tobytes() == per_row.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    seed=_SEED,
    ticks=st.integers(min_value=1, max_value=600),
    jobs=st.integers(min_value=1, max_value=40),
)
def test_accumulate_equals_adding_one_row_at_a_time(
    seed: int, ticks: int, jobs: int
) -> None:
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-5.0, 5.0, (ticks, jobs)) * 10.0 ** rng.integers(
        -6, 6, (ticks, jobs)
    )
    running = rows[0].copy()
    sequential = [running.copy()]
    for row in rows[1:]:
        running = running + row
        sequential.append(running.copy())
    assert np.add.accumulate(rows, axis=0).tobytes() == np.array(sequential).tobytes()
    out = rows.copy()
    np.add.accumulate(out, axis=0, out=out)
    assert out.tobytes() == np.array(sequential).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    seed=_SEED,
    ticks=st.integers(min_value=1, max_value=50),
    width=st.integers(min_value=0, max_value=60),
    sigma=st.floats(min_value=1e-6, max_value=2.0),
)
def test_one_block_draw_equals_per_tick_draws(
    seed: int, ticks: int, width: int, sigma: float
) -> None:
    """``width`` stands for ``J+M``: the jobs' jitter and nodes' noise."""
    per_tick = np.random.default_rng(seed)
    innovations, bodies = [], []
    for _ in range(ticks):
        innovations.append(per_tick.normal(0.0, sigma))
        bodies.append(per_tick.standard_normal(width))

    block = np.random.default_rng(seed)
    z = block.standard_normal(ticks * (1 + width)).reshape(ticks, 1 + width)

    assert np.array(innovations).tobytes() == (sigma * z[:, 0]).tobytes()
    assert np.array(bodies).reshape(ticks, width).tobytes() == z[:, 1:].tobytes()
    assert block.bit_generator.state == per_tick.bit_generator.state
