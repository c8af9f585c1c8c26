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
        tracer.leaf("b", {})
        tracer.leaf("a", {})
        tracer.end_cycle()
        assert [s.name for s in root.walk()] == ["cycle", "b", "a"]


class TestCycleTracer:
    def test_nested_spans_close_and_attach(self):
        tracer = CycleTracer()
        root = tracer.begin_cycle(1.0)
        attrs = {"coverage": 1.0}
        tracer.leaf("collect", attrs)
        assert root.open
        done = tracer.end_cycle()
        assert done is root
        assert not root.open
        assert [c.name for c in root.children] == ["collect"]
        assert not root.children[0].open
        assert root.children[0].attrs is attrs
        assert tracer.cycles_traced == 1

    def test_seq_is_monotone_across_cycles(self):
        tracer = CycleTracer()
        seqs = []
        for t in (1.0, 2.0):
            root = tracer.begin_cycle(t)
            tracer.leaf("a", {})
            seqs.append(root.seq)
            seqs.append(root.children[0].seq)
            tracer.end_cycle()
        assert seqs == sorted(set(seqs))

    def test_child_spans_share_cycle_time(self):
        tracer = CycleTracer()
        root = tracer.begin_cycle(7.5)
        tracer.leaf("a", {})
        tracer.end_cycle()
        assert root.children[0].time == pytest.approx(7.5)

    def test_sinks_receive_completed_root(self):
        seen = []
        tracer = CycleTracer()
        tracer.add_sink(seen.append)
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
            tracer.leaf("orphan", {})
        tracer.begin_cycle(0.0)
        tracer.end_cycle()
        with pytest.raises(ObservabilityError):
            tracer.leaf("after-end", {})

    def test_end_cycle_without_begin_raises(self):
        with pytest.raises(ObservabilityError):
            CycleTracer().end_cycle()


class TestDisabledTracer:
    def test_disabled_hands_out_shared_nulls(self):
        tracer = CycleTracer(enabled=False)
        assert tracer.begin_cycle(0.0) is NULL_SPAN
        tracer.leaf("x", {"a": 1})
        assert NULL_SPAN.children == []
        assert tracer.end_cycle() is None
        assert tracer.cycles_traced == 0
