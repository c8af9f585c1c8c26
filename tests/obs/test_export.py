"""Unit tests for the JSONL and Prometheus exporters."""

import json

import pytest

from repro.obs import (
    CycleTracer,
    FlightDump,
    MetricRegistry,
    flight_jsonl_lines,
    jsonl_line,
    trace_jsonl_lines,
    write_flight_jsonl,
    write_metrics_prometheus,
    write_trace_jsonl,
)


def _trace_two_cycles():
    tracer = CycleTracer()
    spans = []
    tracer.add_sink(spans.append)
    for t in (30.0, 60.0):
        tracer.begin_cycle(t)
        tracer.leaf("collect", {"size": 128})
        tracer.end_cycle()
    return spans


class TestJsonlLine:
    def test_compact_separators_and_insertion_order(self):
        line = jsonl_line({"b": 1, "a": [1, 2]})
        assert line == '{"b":1,"a":[1,2]}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            jsonl_line({"x": float("nan")})


class TestTraceJsonl:
    def test_one_line_per_cycle(self):
        lines = trace_jsonl_lines(_trace_two_cycles())
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "cycle"
        assert first["t"] == pytest.approx(30.0)
        assert first["children"][0]["name"] == "collect"
        assert first["children"][0]["attrs"] == {"size": 128}

    def test_write_returns_line_count_and_uses_lf(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        n = write_trace_jsonl(_trace_two_cycles(), path)
        assert n == 2
        raw = path.read_bytes()
        assert raw.count(b"\n") == 2
        assert b"\r" not in raw

    def test_byte_identical_across_writes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace_jsonl(_trace_two_cycles(), a)
        write_trace_jsonl(_trace_two_cycles(), b)
        assert a.read_bytes() == b.read_bytes()


class TestFlightJsonl:
    def test_header_then_cycles(self):
        dump = FlightDump(
            reason="red_state_entry",
            time=90.0,
            records=({"name": "cycle", "t": 30.0}, {"name": "cycle", "t": 60.0}),
        )
        lines = flight_jsonl_lines([dump])
        assert len(lines) == 3
        header = json.loads(lines[0])
        assert header == {
            "event": "dump",
            "reason": "red_state_entry",
            "t": 90.0,
            "cycles": 2,
        }
        cycle = json.loads(lines[1])
        assert cycle["event"] == "cycle"
        assert cycle["t"] == pytest.approx(30.0)

    def test_write_empty_dump_list(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        assert write_flight_jsonl([], path) == 0
        assert path.read_text() == ""


class TestMetricsFile:
    def test_write_prometheus_text(self, tmp_path):
        reg = MetricRegistry()
        reg.counter_func("repro_cycles_total", "cycles", lambda: 5.0)
        path = tmp_path / "metrics.prom"
        write_metrics_prometheus(reg, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert "repro_cycles_total 5" in text
