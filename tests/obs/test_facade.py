"""Unit tests for ObsConfig and the Observability facade."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    NULL_FLIGHT_RECORDER,
    NULL_REGISTRY,
    NULL_TRACER,
    Observability,
    ObsConfig,
    resolve_obs,
)


class TestObsConfig:
    def test_default_is_everything_off(self):
        cfg = ObsConfig()
        assert not cfg.trace and not cfg.metrics
        assert cfg.flight_recorder_cycles == 0
        assert not cfg.tracing and not cfg.enabled
        assert ObsConfig.off() == cfg

    def test_flight_recorder_implies_tracing(self):
        cfg = ObsConfig(flight_recorder_cycles=8)
        assert cfg.tracing and cfg.enabled and not cfg.trace

    def test_metrics_alone_enables_without_tracing(self):
        cfg = ObsConfig(metrics=True)
        assert cfg.enabled and not cfg.tracing

    def test_paths_require_their_instrument(self):
        with pytest.raises(ConfigurationError):
            ObsConfig(trace_path="t.jsonl")
        with pytest.raises(ConfigurationError):
            ObsConfig(metrics_path="m.prom")
        with pytest.raises(ConfigurationError):
            ObsConfig(flight_path="f.jsonl")
        with pytest.raises(ConfigurationError):
            ObsConfig(flight_recorder_cycles=-1)

    def test_full_turns_everything_on(self):
        cfg = ObsConfig.full()
        assert cfg.trace and cfg.metrics and cfg.flight_recorder_cycles > 0


class TestObservability:
    def test_disabled_facade_is_shared_nulls(self):
        obs = Observability.disabled()
        assert obs is Observability.disabled()
        assert obs is resolve_obs(None)
        assert obs.tracer is NULL_TRACER
        assert obs.metrics is NULL_REGISTRY
        assert obs.flight is NULL_FLIGHT_RECORDER
        assert not obs.enabled and not obs.tracing and not obs.metrics_on

    def test_resolve_obs_passes_through(self):
        obs = Observability(ObsConfig(metrics=True))
        assert resolve_obs(obs) is obs

    def test_trace_collects_cycle_spans(self):
        obs = Observability(ObsConfig(trace=True))
        obs.tracer.begin_cycle(30.0)
        obs.tracer.end_cycle()
        assert len(obs.spans) == 1
        assert obs.spans[0].time == pytest.approx(30.0)

    def test_flight_sink_records_serialized_cycles(self):
        obs = Observability(ObsConfig(flight_recorder_cycles=4))
        assert obs.tracing  # the ring needs span trees
        obs.tracer.begin_cycle(30.0)
        obs.tracer.end_cycle()
        assert obs.spans == []  # whole-run trace stays off
        assert len(obs.flight) == 1
        assert obs.flight.snapshot()[0]["t"] == pytest.approx(30.0)

    def test_trip_is_noop_without_recorder(self):
        obs = Observability(ObsConfig(trace=True))
        assert obs.trip("red_state_entry", 30.0) is None

    def test_trip_dumps_buffered_cycles(self):
        obs = Observability(ObsConfig(flight_recorder_cycles=4))
        obs.tracer.begin_cycle(30.0)
        obs.tracer.end_cycle()
        dump = obs.trip("red_state_entry", 30.0)
        assert dump is not None and len(dump.records) == 1

    def test_export_writes_all_configured_paths(self, tmp_path):
        cfg = ObsConfig(
            trace=True,
            metrics=True,
            flight_recorder_cycles=4,
            trace_path=str(tmp_path / "trace.jsonl"),
            metrics_path=str(tmp_path / "metrics.prom"),
            flight_path=str(tmp_path / "flight.jsonl"),
        )
        obs = Observability(cfg)
        obs.tracer.begin_cycle(30.0)
        obs.tracer.end_cycle()
        obs.metrics.counter_func("c_total", "help", lambda: 1.0)
        obs.trip("run_end", 30.0)
        written = obs.export()
        assert written == [cfg.trace_path, cfg.metrics_path, cfg.flight_path]
        for path in written:
            assert (tmp_path / path).exists() or path  # absolute paths
        assert (tmp_path / "trace.jsonl").read_text().count("\n") == 1
        assert "c_total 1" in (tmp_path / "metrics.prom").read_text()
        assert '"reason":"run_end"' in (tmp_path / "flight.jsonl").read_text()

    def test_export_without_paths_writes_nothing(self):
        obs = Observability(ObsConfig(trace=True, metrics=True))
        assert obs.export() == []
