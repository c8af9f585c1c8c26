"""Unit tests for the cycle tracer and span trees."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import NULL_SPAN, CycleTracer, Span


class TestSpan:
    def test_to_dict_orders_keys_deterministically(self):
        span = Span("cycle", 3.0, 0)
        span.attrs["b"] = 1
        span.attrs["a"] = 2
        record = span.to_dict()
        assert list(record) == ["name", "t", "seq", "attrs"]
        # Attribute order is insertion order, not alphabetical.
        assert list(record["attrs"]) == ["b", "a"]

    def test_to_dict_omits_empty_attrs_and_children(self):
        record = Span("cycle", 0.0, 0).to_dict()
        assert "attrs" not in record
        assert "children" not in record

    def test_walk_is_depth_first_preorder(self):
        tracer = CycleTracer()
        root = tracer.begin_cycle(0.0)
        tracer.open_span("a")
        tracer.open_span("a1")
        tracer.close_span()
        tracer.close_span()
        tracer.open_span("b")
        tracer.close_span()
        tracer.end_cycle()
        assert [s.name for s in root.walk()] == ["cycle", "a", "a1", "b"]


class TestCycleTracer:
    def test_nested_spans_close_and_attach(self):
        tracer = CycleTracer()
        root = tracer.begin_cycle(1.0)
        sp = tracer.open_span("collect")
        sp.attrs["coverage"] = 1.0
        tracer.close_span()
        assert tracer.depth == 1  # only the root remains open
        done = tracer.end_cycle()
        assert done is root
        assert not root.open
        assert [c.name for c in root.children] == ["collect"]
        assert tracer.cycles_traced == 1

    def test_seq_is_monotone_across_cycles(self):
        tracer = CycleTracer()
        seqs = []
        for t in (1.0, 2.0):
            root = tracer.begin_cycle(t)
            seqs.append(tracer.open_span("a").seq)
            tracer.close_span()
            seqs.append(root.seq)
            tracer.end_cycle()
        assert sorted(seqs) == sorted(set(seqs))

    def test_child_spans_share_cycle_time(self):
        tracer = CycleTracer()
        tracer.begin_cycle(7.5)
        assert tracer.open_span("a").time == pytest.approx(7.5)
        tracer.close_span()
        tracer.end_cycle()

    def test_sinks_receive_completed_root(self):
        seen = []
        tracer = CycleTracer(sinks=(seen.append,))
        tracer.begin_cycle(0.0)
        tracer.end_cycle()
        assert len(seen) == 1 and seen[0].name == "cycle"

    def test_begin_with_open_cycle_raises(self):
        tracer = CycleTracer()
        tracer.begin_cycle(0.0)
        with pytest.raises(ObservabilityError):
            tracer.begin_cycle(1.0)

    def test_span_outside_cycle_raises(self):
        tracer = CycleTracer()
        with pytest.raises(ObservabilityError):
            tracer.open_span("orphan")

    def test_close_with_only_root_open_raises(self):
        tracer = CycleTracer()
        tracer.begin_cycle(0.0)
        tracer.open_span("a")
        tracer.close_span()
        with pytest.raises(ObservabilityError):
            tracer.close_span()

    def test_end_cycle_with_open_children_raises(self):
        tracer = CycleTracer()
        tracer.begin_cycle(0.0)
        tracer.open_span("left-open")
        with pytest.raises(ObservabilityError):
            tracer.end_cycle()

    def test_end_cycle_without_begin_raises(self):
        with pytest.raises(ObservabilityError):
            CycleTracer().end_cycle()


class TestDisabledTracer:
    def test_disabled_hands_out_shared_nulls(self):
        tracer = CycleTracer(enabled=False)
        assert tracer.begin_cycle(0.0) is NULL_SPAN
        assert tracer.open_span("x") is NULL_SPAN
        assert tracer.end_cycle() is None
        assert tracer.cycles_traced == 0
