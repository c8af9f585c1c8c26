"""Observability: cycle tracing, metric registry, flight recorder.

The paper evaluates its capping architecture by *replaying* what the
controller saw and did (§V's figures are all traces); this package makes
the reproduction itself observable the same way, without perturbing it:

* :class:`~repro.obs.trace.CycleTracer` — one span tree per control
  cycle (a ``cycle`` root over ``collect`` / ``estimate`` / ``classify``
  / ``select_targets`` / ``actuate`` / ``journal`` leaves) with
  *sim-time* timestamps only, so traces from one seed are
  byte-identical;
* :class:`~repro.obs.metrics.MetricRegistry` — counters, gauges and
  histograms (cycles by color, DVFS transitions, fenced rejections,
  LKG cache age, retry counts), exported as Prometheus text; counters
  and gauges mirror existing subsystem statistics through export-time
  callbacks with zero per-cycle cost;
* :class:`~repro.obs.flight.FlightRecorder` — a bounded ring of the
  last N cycles, dumped as JSON lines when a trigger trips (fault
  onset, controller crash, failover, red-state entry, end of run).

Everything hangs off one :class:`~repro.obs.config.ObsConfig` carried by
an :class:`~repro.obs.facade.Observability` facade; disabled (the
default) the instrumented call sites degrade to shared no-op singletons
and the control loop's decisions are unchanged bit for bit.
"""

from repro.obs.config import ObsConfig
from repro.obs.export import (
    flight_jsonl_lines,
    jsonl_line,
    trace_jsonl_lines,
    write_flight_jsonl,
    write_metrics_prometheus,
    write_trace_jsonl,
)
from repro.obs.facade import Observability, resolve_obs
from repro.obs.flight import NULL_FLIGHT_RECORDER, FlightDump, FlightRecorder
from repro.obs.metrics import NULL_REGISTRY, Histogram, MetricRegistry
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    AttrValue,
    CycleTracer,
    Span,
)

__all__ = [
    "AttrValue",
    "CycleTracer",
    "FlightDump",
    "FlightRecorder",
    "Histogram",
    "MetricRegistry",
    "NULL_FLIGHT_RECORDER",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "ObsConfig",
    "Observability",
    "Span",
    "flight_jsonl_lines",
    "jsonl_line",
    "resolve_obs",
    "trace_jsonl_lines",
    "write_flight_jsonl",
    "write_metrics_prometheus",
    "write_trace_jsonl",
]
