"""Property-based tests for the observability layer.

Four invariants the layer stands on:

* span trees produced by any legal tracer program hold every leaf in
  call order under one root and are fully closed;
* histogram bucket counts are cumulative and consistent;
* the flight-recorder ring never exceeds its capacity, whatever the
  record/trip interleaving;
* switching observability on does not change a single capping decision —
  the enabled and disabled runs produce identical power series.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExperimentConfig, ObsConfig, run_experiment
from repro.obs import CycleTracer, FlightRecorder, MetricRegistry

# ---------------------------------------------------------------------------
# Span nesting / closure
# ---------------------------------------------------------------------------

#: A random tracer program: the cycles to trace, each a number of leaves.
span_program = st.lists(
    st.integers(min_value=0, max_value=6), min_size=0, max_size=4
)


@given(span_program, st.floats(min_value=0.0, max_value=1e6))
def test_spans_properly_nested_and_closed(program, t):
    tracer = CycleTracer()
    roots = []
    for leaves in program:
        root = tracer.begin_cycle(t)
        for i in range(leaves):
            tracer.leaf(f"s{i}", {"i": i})
        tracer.end_cycle()
        roots.append(root)

    assert tracer.cycles_traced == len(program)
    spans = [s for root in roots for s in root.walk()]
    assert all(not s.open for s in spans)
    assert len(spans) == len(program) + sum(program)
    # Every leaf hangs off its cycle's root, in call order.
    for root, leaves in zip(roots, program):
        assert [c.name for c in root.children] == [f"s{i}" for i in range(leaves)]
        assert all(not c.children for c in root.children)
    # seq is a preorder: strictly increasing along the walk.
    seqs = [s.seq for s in spans]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    # All spans carry the cycle's sim time.
    assert all(s.time == t for s in spans)


# ---------------------------------------------------------------------------
# Histogram consistency
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=0,
        max_size=30,
    )
)
def test_histogram_buckets_are_cumulative_and_total(values):
    hist = MetricRegistry().histogram(
        "h", "help", buckets=(-10.0, 0.0, 10.0, 1e3)
    )
    for v in values:
        hist.observe(v)
    cumulative = hist.cumulative_counts()
    assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))
    assert cumulative[-1] == hist.count == len(values)
    for bound, count in zip(hist.bounds, cumulative):
        assert count == sum(1 for v in values if v <= bound)


# ---------------------------------------------------------------------------
# Flight-recorder capacity bound
# ---------------------------------------------------------------------------

#: True = record a cycle, False = trip a dump.
flight_ops = st.lists(st.booleans(), min_size=0, max_size=50)


@given(st.integers(min_value=1, max_value=8), flight_ops)
def test_ring_never_exceeds_capacity(capacity, ops):
    rec = FlightRecorder(capacity)
    recorded = 0
    for i, is_record in enumerate(ops):
        if is_record:
            rec.record({"seq": i})
            recorded += 1
        else:
            dump = rec.trip("prop", now=float(i))
            assert len(dump.records) <= capacity
        assert len(rec) <= capacity
        assert len(rec) == min(recorded, capacity)
    assert rec.recorded_total == recorded
    # Dumps always hold the *most recent* records, oldest first.
    for dump in rec.dumps:
        seqs = [r["seq"] for r in dump.records]
        assert seqs == sorted(seqs)


# ---------------------------------------------------------------------------
# Observability does not perturb control decisions
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=3)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_enabled_obs_changes_no_capping_decision(seed):
    def run(obs_cfg):
        cfg = ExperimentConfig.quick(
            seed=seed,
            training_duration_s=60.0,
            run_duration_s=90.0,
            obs=obs_cfg,
        )
        return run_experiment(cfg, "mpc")

    plain = run(ObsConfig.off())
    traced = run(ObsConfig(trace=True, metrics=True, flight_recorder_cycles=8))

    assert np.array_equal(plain.power_w, traced.power_w)
    assert np.array_equal(plain.times, traced.times)
    assert plain.metrics.finished_jobs == traced.metrics.finished_jobs
    assert plain.metrics.p_max_w == traced.metrics.p_max_w
