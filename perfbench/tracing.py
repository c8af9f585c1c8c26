"""Out-of-band span tracing around the public entry points of each layer.

The traced run of the benchmark wraps a fixed list of methods and
functions (:func:`entry_points`) with thin timers for each traced
iteration of the workload, and restores every original attribute
afterwards.  Nothing inside ``src/repro`` changes: the wrappers sit on
the classes, and on the module globals through which callers look
imported names up.

Spans live in memory (one row per wrapped call: name, start, end, parent
span, run id, phase) and are summarised into the per-layer metrics of
:data:`PER_LAYER` when the iteration ends.  A run id is assigned per
protocol run (``run_experiment``) and per cache lookup (one sweep cell).
Spans opened before a run's ``PowerProvision.check_assumptions`` call
belong to its *training* phase, later ones to its *main* phase.  Waiting
time is not measured: the workloads run serially, so nothing queues.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import repro.experiments.cache as cache_mod
import repro.experiments.common as common_mod
import repro.experiments.sweep as sweep_mod
from repro.cluster.vector import VectorEngine
from repro.core.actuator import DvfsActuator
from repro.core.capping import PowerCappingAlgorithm
from repro.core.manager import PowerManager
from repro.core.policies.base import SelectionPolicy
from repro.experiments.cache import ResultCache
from repro.faults.injector import FaultInjector
from repro.ha.failover import HaController
from repro.ha.journal import StateJournal
from repro.metrics.summary import RunMetrics
from repro.power.estimator import NodePowerEstimator
from repro.power.hetero import HeterogeneousPowerModel
from repro.power.meter import SystemPowerMeter
from repro.power.model import PowerModel
from repro.power.supply import PowerProvision
from repro.provision.runtime import ProvisionRuntime
from repro.scheduler.scheduler import BatchScheduler
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.integrity import TelemetryValidator
from repro.workload.executor import JobExecutor

OUTSIDE, TRAINING, MAIN = 0, 1, 2
_NS_PER_MS = 1e6


class Tracer:
    """In-memory span store and counters for one traced iteration."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.runs = array("q")
        self.phases = bytearray()
        #: 1 when no enclosing span has the same name, so an entry point
        #: that calls itself (a policy delegating to another) is not
        #: counted twice in its total.
        self.outer = bytearray()
        self.counts: Counter[str] = Counter()
        self.run_id = 0
        self.phase = OUTSIDE
        #: When the current run crossed from training to main.
        self.main_start_ns: int | None = None
        #: ``(scheduler, started_count)`` at the previous tick.
        self.tick_memo: tuple[object, int] = (None, 0)
        self._stack: list[int] = []
        self._depth: Counter[str] = Counter()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.phases.append(self.phase)
        self.outer.append(self._depth[name] == 0)
        self._depth[name] += 1
        self._stack.append(idx)
        self.ends.append(0)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[self.names[idx]] -= 1


@dataclass(frozen=True)
class SpanStats:
    """Per-name aggregates of one tracer's spans (times in ms)."""

    calls: Counter[str]
    total_ms: Counter[str]
    self_ms: Counter[str]
    #: ``(name, phase)`` → self time, for the training/main split.
    phase_self_ms: Counter[tuple[str, int]]
    top_level_ms: float

    @classmethod
    def of(cls, tracer: Tracer) -> "SpanStats":
        n = len(tracer.names)
        durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
        child_ns = [0] * n
        for i in range(n):
            if tracer.parents[i] >= 0:
                child_ns[tracer.parents[i]] += durations[i]
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        phase_own: Counter[tuple[str, int]] = Counter()
        top_ns = 0
        for i, name in enumerate(tracer.names):
            calls[name] += 1
            self_ms = (durations[i] - child_ns[i]) / _NS_PER_MS
            own[name] += self_ms
            phase_own[(name, tracer.phases[i])] += self_ms
            if tracer.outer[i]:
                total[name] += durations[i] / _NS_PER_MS
            if tracer.parents[i] < 0:
                top_ns += durations[i]
        return cls(
            calls=calls,
            total_ms=total,
            self_ms=own,
            phase_self_ms=phase_own,
            top_level_ms=top_ns / _NS_PER_MS,
        )


    def per(self, n: int) -> "SpanStats":
        """The aggregates divided by ``n`` (per traced iteration)."""

        def div(c: Counter[Any]) -> Counter[Any]:
            return Counter({k: v / n for k, v in c.items()})

        return SpanStats(
            calls=div(self.calls),
            total_ms=div(self.total_ms),
            self_ms=div(self.self_ms),
            phase_self_ms=div(self.phase_self_ms),
            top_level_ms=self.top_level_ms / n,
        )


# ----------------------------------------------------------------------
# Count hooks: read the wrapped call's arguments, return value and the
# public result fields after its span has closed.
# ----------------------------------------------------------------------
Hook = Callable[[Tracer, tuple[Any, ...], Any], None]


def _count_tick(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    scheduler = args[0]
    started = scheduler.started_count
    last, seen = tracer.tick_memo
    tracer.counts["scheduler.jobs_started"] += started - (
        seen if last is scheduler else 0
    )
    tracer.tick_memo = (scheduler, started)
    tracer.counts["scheduler.jobs_finished"] += len(result)


def _count_step_jobs(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    jobs = args[2]
    tracer.counts["workload.job_steps"] += len(jobs)
    tracer.counts["cluster.node_steps"] += sum(len(job.nodes) for job in jobs)


def _count_collect(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    tracer.counts["telemetry.samples"] += result.size


def _count_validate(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    tracer.counts["telemetry.quarantined_node_cycles"] += int(
        result.quarantined.sum()
    )


def _count_cycle(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    tracer.counts[f"core.cycles.{result.state.value}"] += 1


def _count_decide(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    tracer.counts["core.targets"] += result.num_targets


def _count_apply(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    tracer.counts["core.commands"] += result.commands
    tracer.counts["core.commands_effective"] += result.effective


def _count_append(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    tracer.counts["ha.journal_records"] += 1


def _count_compact(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    tracer.counts["ha.compactions"] += 1


def _count_get(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    hit = "hits" if result is not None else "misses"
    tracer.counts[f"experiments.cache.{hit}"] += 1


def _count_put(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    cache, key = args[0], args[1]
    tracer.counts["experiments.cache.bytes_written"] += os.path.getsize(
        cache.path_for(key)
    )


def _count_run(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    counts = tracer.counts
    counts["experiments.cells_computed"] += 1
    if result.fault_stats is not None:
        counts["faults.dropped_samples"] += result.fault_stats.dropped_samples
        counts["faults.commands_lost"] += result.fault_stats.commands_lost
        counts["faults.commands_retried"] += result.fault_stats.commands_retried
    if result.provision_stats is not None:
        stats = result.provision_stats
        counts["provision.branch_cap_interventions"] += stats.branch_cap_interventions
        counts["provision.breaker_trips"] += stats.breaker_trips
    if result.ha_stats is not None:
        counts["ha.failovers"] += result.ha_stats.failovers


# ----------------------------------------------------------------------
# Where to wrap
# ----------------------------------------------------------------------
def _policy_classes() -> list[type]:
    """Every selection-policy class that defines its own ``select``."""
    found: list[type] = []
    pending = list(SelectionPolicy.__subclasses__())
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(
        (c for c in found if "select" in vars(c)), key=lambda c: c.__qualname__
    )


def entry_points() -> list[tuple[str, object, str, Hook | None]]:
    """``(span name, owner, attribute, count hook)`` for every wrapper.

    Module-level functions are wrapped in the namespace of each caller
    that looks them up: the benchmark calls ``run_experiment`` through
    :mod:`repro.experiments.common` and ``run_sweep`` through
    :mod:`repro.experiments.sweep`; the sweep runner and the cache call
    the serializers through their own imported names.
    """
    points: list[tuple[str, object, str, Hook | None]] = [
        ("scheduler.tick", BatchScheduler, "tick", _count_tick),
        ("workload.advance", JobExecutor, "advance", None),
        ("cluster.step_jobs", VectorEngine, "step_jobs", _count_step_jobs),
        ("power.system_power", PowerModel, "system_power", None),
        ("power.system_power", HeterogeneousPowerModel, "system_power", None),
        ("power.meter_read", SystemPowerMeter, "read", None),
        ("power.estimate_nodes", NodePowerEstimator, "estimate_nodes", None),
        ("telemetry.collect", TelemetryCollector, "collect", _count_collect),
        ("telemetry.validate", TelemetryValidator, "validate", _count_validate),
        ("core.control_cycle", PowerManager, "control_cycle", _count_cycle),
        ("core.decide", PowerCappingAlgorithm, "decide", _count_decide),
        ("core.actuate", DvfsActuator, "apply", _count_apply),
        ("faults.begin_cycle", FaultInjector, "begin_cycle", None),
        ("provision.begin_cycle", ProvisionRuntime, "begin_cycle", None),
        ("provision.settle", ProvisionRuntime, "settle", None),
        ("ha.control_cycle", HaController, "control_cycle", None),
        ("ha.journal.append", StateJournal, "append", _count_append),
        ("ha.journal.compact", StateJournal, "compact", _count_compact),
        ("metrics.evaluate", RunMetrics, "evaluate", None),
        ("experiments.run_experiment", common_mod, "run_experiment", _count_run),
        ("experiments.run_experiment", sweep_mod, "run_experiment", _count_run),
        ("experiments.sweep", sweep_mod, "run_sweep", None),
        ("experiments.cache_get", ResultCache, "get", _count_get),
        ("experiments.cache_put", ResultCache, "put", _count_put),
        ("experiments.encode", cache_mod, "result_to_dict", None),
        ("experiments.encode", cache_mod, "canonical_json", None),
        ("experiments.encode", sweep_mod, "result_to_dict", None),
        ("experiments.encode", sweep_mod, "canonical_json", None),
        ("experiments.decode", cache_mod, "result_from_dict", None),
        ("experiments.decode", sweep_mod, "result_from_dict", None),
    ]
    points.extend(("core.select", cls, "select", None) for cls in _policy_classes())
    return points


def _span_wrapper(
    tracer: Tracer, name: str, fn: Callable[..., Any], hook: Hook | None
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


def _run_wrapper(
    tracer: Tracer, name: str, fn: Callable[..., Any], hook: Hook | None
) -> Callable[..., Any]:
    """``run_experiment``: a new run id and the training/main split."""
    inner = _span_wrapper(tracer, name, fn, hook)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        tracer.run_id += 1
        tracer.phase = TRAINING
        tracer.main_start_ns = None
        start = time.perf_counter_ns()
        try:
            return inner(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            boundary = tracer.main_start_ns or end
            tracer.counts["experiments.training_ns"] += boundary - start
            tracer.counts["experiments.main_ns"] += end - boundary
            tracer.phase = OUTSIDE

    return traced


def _cell_wrapper(
    tracer: Tracer, name: str, fn: Callable[..., Any], hook: Hook | None
) -> Callable[..., Any]:
    """``ResultCache.get``: each lookup is one sweep cell's run id."""
    inner = _span_wrapper(tracer, name, fn, hook)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        tracer.run_id += 1
        return inner(*args, **kwargs)

    return traced


def _boundary_wrapper(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``PowerProvision.check_assumptions``: training ends, main begins."""

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if tracer.phase == TRAINING:
            tracer.main_start_ns = time.perf_counter_ns()
            tracer.phase = MAIN
        return fn(*args, **kwargs)

    return traced


_WRAPPER_KIND = {
    "experiments.run_experiment": _run_wrapper,
    "experiments.cache_get": _cell_wrapper,
}


def stored() -> dict[tuple[int, str], Any]:
    """Every attribute the traced run replaces, as currently stored."""
    found = [(owner, attr) for _, owner, attr, _ in entry_points()]
    found.append((PowerProvision, "check_assumptions"))
    return {(id(owner), attr): vars(owner)[attr] for owner, attr in found}


class Installation:
    """Wrappers in place for one traced iteration; ``with`` restores them.

    The originals are read from the owner's own ``__dict__`` (so a
    classmethod stays a classmethod) and written back on exit, even when
    the iteration raised.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._saved: list[tuple[object, str, Any]] = []
        try:
            for name, owner, attr, hook in entry_points():
                original = vars(owner)[attr]
                is_cm = isinstance(original, classmethod)
                fn = original.__func__ if is_cm else original
                make = _WRAPPER_KIND.get(name, _span_wrapper)
                wrapped = make(tracer, name, fn, hook)
                self._replace(owner, attr, classmethod(wrapped) if is_cm else wrapped)
            original = vars(PowerProvision)["check_assumptions"]
            self._replace(
                PowerProvision, "check_assumptions", _boundary_wrapper(tracer, original)
            )
        except BaseException:
            self.remove()
            raise

    def _replace(self, owner: object, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()


# ----------------------------------------------------------------------
# The per-layer metrics
# ----------------------------------------------------------------------
Value = Callable[[SpanStats, Counter[str]], float]


def _total(*names: str) -> Value:
    return lambda s, c: sum(s.total_ms[n] for n in names)


def _self(name: str) -> Value:
    return lambda s, c: s.self_ms[name]


def _calls(name: str) -> Value:
    return lambda s, c: float(s.calls[name])


def _count(key: str) -> Value:
    return lambda s, c: float(c[key])


def _ns_as_ms(key: str) -> Value:
    return lambda s, c: c[key] / _NS_PER_MS


def _ratio(num: Value, den: Value, scale: float = 1.0) -> Value:
    def value(s: SpanStats, c: Counter[str]) -> float:
        d = den(s, c)
        return scale * num(s, c) / d if d else 0.0

    return value


#: ``(metric, unit, better, value, span that shows the layer ran)``.
#: Time metrics named ``.ms`` are totals, ``.self_ms`` exclude the
#: wrapped children; ``bench.*`` metrics are filled in by the runner.
PER_LAYER: list[tuple[str, str, str, Value | None, str | None]] = [
    ("scheduler.tick.calls", "count", "lower", _calls("scheduler.tick"), "scheduler.tick"),
    ("scheduler.tick.self_ms", "ms", "lower", _self("scheduler.tick"), "scheduler.tick"),
    ("scheduler.jobs_started", "count", "higher", _count("scheduler.jobs_started"), "scheduler.tick"),
    ("scheduler.jobs_finished", "count", "higher", _count("scheduler.jobs_finished"), "scheduler.tick"),
    ("workload.advance.self_ms", "ms", "lower", _self("workload.advance"), "workload.advance"),
    ("workload.job_steps", "count", "lower", _count("workload.job_steps"), "workload.advance"),
    ("cluster.step_jobs.ms", "ms", "lower", _total("cluster.step_jobs"), "cluster.step_jobs"),
    ("cluster.node_steps", "count", "lower", _count("cluster.node_steps"), "cluster.step_jobs"),
    (
        "cluster.step_jobs.us_per_job_step", "us", "lower",
        _ratio(_total("cluster.step_jobs"), _count("workload.job_steps"), 1e3),
        "cluster.step_jobs",
    ),
    ("power.system_power.calls", "count", "lower", _calls("power.system_power"), "power.system_power"),
    ("power.system_power.ms", "ms", "lower", _total("power.system_power"), "power.system_power"),
    ("power.meter_read.ms", "ms", "lower", _total("power.meter_read"), "power.meter_read"),
    ("power.estimate_nodes.calls", "count", "lower", _calls("power.estimate_nodes"), "power.estimate_nodes"),
    ("power.estimate_nodes.ms", "ms", "lower", _total("power.estimate_nodes"), "power.estimate_nodes"),
    ("telemetry.collect.self_ms", "ms", "lower", _self("telemetry.collect"), "telemetry.collect"),
    ("telemetry.samples", "count", "lower", _count("telemetry.samples"), "telemetry.collect"),
    ("telemetry.validate.ms", "ms", "lower", _total("telemetry.validate"), "telemetry.validate"),
    (
        "telemetry.quarantined_node_cycles", "count", "lower",
        _count("telemetry.quarantined_node_cycles"), "telemetry.validate",
    ),
    ("core.control_cycle.calls", "count", "lower", _calls("core.control_cycle"), "core.control_cycle"),
    ("core.control_cycle.self_ms", "ms", "lower", _self("core.control_cycle"), "core.control_cycle"),
    (
        "core.control_cycle.us_per_cycle", "us", "lower",
        _ratio(_total("core.control_cycle"), _calls("core.control_cycle"), 1e3),
        "core.control_cycle",
    ),
    ("core.decide.ms", "ms", "lower", _total("core.decide"), "core.decide"),
    ("core.select.ms", "ms", "lower", _total("core.select"), "core.select"),
    ("core.targets", "count", "lower", _count("core.targets"), "core.decide"),
    ("core.actuate.ms", "ms", "lower", _total("core.actuate"), "core.actuate"),
    ("core.commands", "count", "lower", _count("core.commands"), "core.actuate"),
    (
        "core.actuate.effective_ratio", "ratio", "higher",
        _ratio(_count("core.commands_effective"), _count("core.commands")),
        "core.actuate",
    ),
    ("core.cycles.green", "count", "higher", _count("core.cycles.green"), "core.control_cycle"),
    ("core.cycles.yellow", "count", "lower", _count("core.cycles.yellow"), "core.control_cycle"),
    ("core.cycles.red", "count", "lower", _count("core.cycles.red"), "core.control_cycle"),
    ("faults.begin_cycle.ms", "ms", "lower", _total("faults.begin_cycle"), "faults.begin_cycle"),
    ("faults.dropped_samples", "count", "lower", _count("faults.dropped_samples"), "faults.begin_cycle"),
    ("faults.commands_lost", "count", "lower", _count("faults.commands_lost"), "faults.begin_cycle"),
    ("faults.commands_retried", "count", "lower", _count("faults.commands_retried"), "faults.begin_cycle"),
    ("provision.begin_cycle.ms", "ms", "lower", _total("provision.begin_cycle"), "provision.begin_cycle"),
    ("provision.settle.ms", "ms", "lower", _total("provision.settle"), "provision.settle"),
    (
        "provision.branch_cap_interventions", "count", "lower",
        _count("provision.branch_cap_interventions"), "provision.settle",
    ),
    ("provision.breaker_trips", "count", "lower", _count("provision.breaker_trips"), "provision.settle"),
    ("ha.control_cycle.self_ms", "ms", "lower", _self("ha.control_cycle"), "ha.control_cycle"),
    ("ha.journal.ms", "ms", "lower", _total("ha.journal.append", "ha.journal.compact"), "ha.journal.append"),
    ("ha.journal_records", "count", "lower", _count("ha.journal_records"), "ha.journal.append"),
    ("ha.compactions", "count", "lower", _count("ha.compactions"), "ha.journal.append"),
    ("ha.failovers", "count", "lower", _count("ha.failovers"), "ha.control_cycle"),
    ("metrics.evaluate.ms", "ms", "lower", _total("metrics.evaluate"), "metrics.evaluate"),
    (
        "experiments.training_ms", "ms", "lower",
        _ns_as_ms("experiments.training_ns"), "experiments.run_experiment",
    ),
    (
        "experiments.main_ms", "ms", "lower",
        _ns_as_ms("experiments.main_ns"), "experiments.run_experiment",
    ),
    (
        "experiments.cells_computed", "count", "lower",
        _count("experiments.cells_computed"), "experiments.run_experiment",
    ),
    ("experiments.cache.hits", "count", "higher", _count("experiments.cache.hits"), "experiments.cache_get"),
    ("experiments.cache.misses", "count", "lower", _count("experiments.cache.misses"), "experiments.cache_get"),
    ("experiments.cache_get.ms", "ms", "lower", _total("experiments.cache_get"), "experiments.cache_get"),
    ("experiments.cache_put.ms", "ms", "lower", _total("experiments.cache_put"), "experiments.cache_put"),
    (
        "experiments.cache.bytes_written", "bytes", "lower",
        _count("experiments.cache.bytes_written"), "experiments.cache_put",
    ),
    ("experiments.encode.ms", "ms", "lower", _total("experiments.encode"), "experiments.encode"),
    ("experiments.decode.ms", "ms", "lower", _total("experiments.decode"), "experiments.decode"),
    ("experiments.sweep.self_ms", "ms", "lower", _self("experiments.sweep"), "experiments.sweep"),
    ("bench.trace_overhead", "ratio", "lower", None, None),
    ("bench.unattributed_ms", "ms", "lower", None, None),
]


def layer_metrics(
    stats: SpanStats, counts: Counter[str]
) -> dict[str, tuple[float, str, bool]]:
    """``metric → (value, unit, exercised)`` for every span-derived metric."""
    out: dict[str, tuple[float, str, bool]] = {}
    for name, unit, _, value, source in PER_LAYER:
        if value is None or source is None:
            continue
        out[name] = (float(value(stats, counts)), unit, stats.calls[source] > 0)
    return out
