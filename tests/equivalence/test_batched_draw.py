"""Pins the numpy property the vector engine's one draw per tick rests on.

``VectorEngine.step_jobs`` draws ``standard_normal(n_jobs + n_nodes)``
once per tick, scales it by σ and scatters it into the per-job jitter
and per-node noise slots.  The object engine instead draws, job by job,
one scalar ``normal(0, σ_j)`` and then one ``normal(0, σ_n)`` per node;
the vector engine used to draw the same per job as one scalar and one
size-``k`` vector.  All three agree bit for bit only because numpy's
``Generator`` fills a size-``m`` draw element by element from the stream
``m`` scalar draws consume, and because ``normal(0, σ)`` returns
``0.0 + σ·z``.  Should a numpy release change either, this test fails
here, at the source, rather than as an opaque equivalence diff.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

_SIGMA = st.floats(min_value=1e-6, max_value=2.0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    counts=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=24),
    sigma_job=_SIGMA,
    sigma_node=_SIGMA,
)
def test_one_scaled_scattered_draw_equals_interleaved_draws(
    seed: int, counts: list[int], sigma_job: float, sigma_node: float
) -> None:
    interleaved = np.random.default_rng(seed)
    per_node_scalars = np.random.default_rng(seed)
    jitter, noise, noise_scalar = [], [], []
    for k in counts:
        jitter.append(interleaved.normal(0.0, sigma_job))
        noise.append(interleaved.normal(0.0, sigma_node, size=k))
        per_node_scalars.normal(0.0, sigma_job)
        noise_scalar.extend(per_node_scalars.normal(0.0, sigma_node) for _ in range(k))

    batched = np.random.default_rng(seed)
    z = batched.standard_normal(len(counts) + sum(counts))
    is_jitter = np.zeros(len(z), dtype=bool)
    is_jitter[np.cumsum([0] + [k + 1 for k in counts[:-1]])] = True

    assert np.array(jitter).tobytes() == (sigma_job * z[is_jitter]).tobytes()
    assert np.concatenate(noise).tobytes() == (sigma_node * z[~is_jitter]).tobytes()
    assert np.array(noise_scalar).tobytes() == np.concatenate(noise).tobytes()
    assert batched.bit_generator.state == interleaved.bit_generator.state
    assert batched.bit_generator.state == per_node_scalars.bit_generator.state
