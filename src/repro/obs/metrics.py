"""The metric registry: counters, gauges and histograms.

Two kinds of instrument coexist:

* **inline** instruments (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) are created once at wiring time and updated from
  the hot path (``counter.inc()`` per cycle);
* **collected** instruments (:meth:`MetricRegistry.counter_func` /
  :meth:`MetricRegistry.gauge_func`) register a zero-argument callable
  that is evaluated only at export time.  Subsystems that already keep
  monotone counters (the actuator's command statistics, the collector's
  drop counts, the journal's record totals) are mirrored this way, so
  instrumenting them costs *nothing* per cycle and the exported value
  can never drift from the source of truth.

A disabled registry hands out shared no-op instruments and ignores
callback registrations, so the disabled path is a handful of no-op
method calls per cycle.

Export is Prometheus text exposition (:meth:`MetricRegistry.
to_prometheus_text`) with families sorted by name and series by label
value — deterministic byte-for-byte for a deterministic run.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Mapping

from repro.errors import ObservabilityError

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry"]

#: A frozen, sorted label set — part of a series' identity.
_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str] | None) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


def _fmt_value(value: float) -> str:
    """Prometheus sample-value formatting (integers without '.0')."""
    f = float(value)
    if f.is_integer() and abs(f) < 1e12:
        return str(int(f))
    return repr(f)


def _fmt_labels(labels: _LabelKey) -> str:
    if not labels:
        return ""
    parts = []
    for key, value in labels:
        escaped = (
            value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        """The current count."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the count.

        Raises:
            ObservabilityError: on a negative increment — counters are
                monotone by contract.
        """
        if amount < 0:
            raise ObservabilityError(
                f"counter increment must be non-negative, got {amount}"
            )
        self._value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        """The current level."""
        return self._value

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = float(value)


class Histogram:
    """A cumulative-bucket histogram (Prometheus semantics).

    Args:
        buckets: Ascending finite upper bounds; a ``+Inf`` bucket is
            implicit.
    """

    __slots__ = ("_bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        if not buckets:
            raise ObservabilityError("histogram needs at least one bucket")
        if any(b >= a for b, a in zip(buckets, buckets[1:])):
            raise ObservabilityError("histogram buckets must be ascending")
        self._bounds = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(buckets) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0

    @property
    def bounds(self) -> tuple[float, ...]:
        """The finite bucket upper bounds."""
        return self._bounds

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def observe(self, value: float) -> None:
        """Record one observation: in the first bucket whose bound it
        does not exceed, else (NaN included) in the +Inf bucket."""
        v = float(value)
        self._sum += v
        self._count += 1
        bounds = self._bounds
        self._counts[bisect_left(bounds, v) if v == v else len(bounds)] += 1

    def cumulative_counts(self) -> tuple[int, ...]:
        """Cumulative per-bucket counts, ending with the +Inf bucket."""
        out: list[int] = []
        running = 0
        for c in self._counts:
            running += c
            out.append(running)
        return tuple(out)


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__((1.0,))

    def observe(self, value: float) -> None:
        return None


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()

#: Kinds a family can have (fixed at first registration).
_KINDS = ("counter", "gauge", "histogram")


class MetricRegistry:
    """Named metric families with labelled series.

    A series' identity is ``(name, sorted labels)``; registering the
    same identity twice returns the existing instrument (inline kinds)
    or rebinds the callback (collected kinds — the HA layer re-registers
    a successor manager's collector after failover).  Registering one
    name under two different kinds raises.

    Args:
        enabled: A disabled registry hands out shared no-op instruments
            and ignores callbacks.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._inline: dict[tuple[str, _LabelKey], Counter | Gauge | Histogram] = {}
        self._collected: dict[tuple[str, _LabelKey], Callable[[], float]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def counter(
        self, name: str, help_: str, labels: Mapping[str, str] | None = None
    ) -> Counter:
        """Get or create the counter series ``(name, labels)``."""
        if not self.enabled:
            return _NULL_COUNTER
        inst = self._register(name, help_, "counter", labels, lambda: Counter())
        assert isinstance(inst, Counter)
        return inst

    def gauge(
        self, name: str, help_: str, labels: Mapping[str, str] | None = None
    ) -> Gauge:
        """Get or create the gauge series ``(name, labels)``."""
        if not self.enabled:
            return _NULL_GAUGE
        inst = self._register(name, help_, "gauge", labels, lambda: Gauge())
        assert isinstance(inst, Gauge)
        return inst

    def histogram(
        self,
        name: str,
        help_: str,
        buckets: tuple[float, ...],
        labels: Mapping[str, str] | None = None,
    ) -> Histogram:
        """Get or create the histogram series ``(name, labels)``."""
        if not self.enabled:
            return _NULL_HISTOGRAM
        inst = self._register(
            name, help_, "histogram", labels, lambda: Histogram(buckets)
        )
        assert isinstance(inst, Histogram)
        return inst

    def counter_func(
        self,
        name: str,
        help_: str,
        fn: Callable[[], float],
        labels: Mapping[str, str] | None = None,
    ) -> None:
        """Register (or rebind) a counter collected at export time."""
        self._register_collected(name, help_, "counter", fn, labels)

    def gauge_func(
        self,
        name: str,
        help_: str,
        fn: Callable[[], float],
        labels: Mapping[str, str] | None = None,
    ) -> None:
        """Register (or rebind) a gauge collected at export time."""
        self._register_collected(name, help_, "gauge", fn, labels)

    def _check_kind(self, name: str, kind: str, help_: str) -> None:
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = kind
            self._help[name] = help_
        elif known != kind:
            raise ObservabilityError(
                f"metric {name!r} already registered as {known}, not {kind}"
            )

    def _register(
        self,
        name: str,
        help_: str,
        kind: str,
        labels: Mapping[str, str] | None,
        make: Callable[[], Counter | Gauge | Histogram],
    ) -> Counter | Gauge | Histogram:
        self._check_kind(name, kind, help_)
        key = (name, _label_key(labels))
        if key in self._collected:
            raise ObservabilityError(
                f"metric series {name!r}{dict(key[1])!r} is already a "
                "collected (callback) series"
            )
        inst = self._inline.get(key)
        if inst is None:
            inst = make()
            self._inline[key] = inst
        return inst

    def _register_collected(
        self,
        name: str,
        help_: str,
        kind: str,
        fn: Callable[[], float],
        labels: Mapping[str, str] | None,
    ) -> None:
        if not self.enabled:
            return
        self._check_kind(name, kind, help_)
        key = (name, _label_key(labels))
        if key in self._inline:
            raise ObservabilityError(
                f"metric series {name!r}{dict(key[1])!r} is already an "
                "inline series"
            )
        # Rebinding is deliberate: after a failover the successor's
        # subsystems take over the series.
        self._collected[key] = fn

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Registered family names, sorted."""
        return sorted(self._kinds)

    def kind(self, name: str) -> str | None:
        """The family's kind, or None if unknown."""
        return self._kinds.get(name)

    def value_of(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> float:
        """Current value of one counter/gauge series.

        Raises:
            ObservabilityError: for an unknown series or a histogram.
        """
        key = (name, _label_key(labels))
        fn = self._collected.get(key)
        if fn is not None:
            return float(fn())
        inst = self._inline.get(key)
        if isinstance(inst, (Counter, Gauge)):
            return inst.value
        raise ObservabilityError(
            f"no scalar metric series {name!r} with labels {dict(_label_key(labels))!r}"
        )

    def collect(self) -> dict[str, dict[_LabelKey, float]]:
        """Every scalar series' current value, family → labels → value."""
        out: dict[str, dict[_LabelKey, float]] = {}
        for (name, labels), inst in self._inline.items():
            if isinstance(inst, (Counter, Gauge)):
                out.setdefault(name, {})[labels] = inst.value
        for (name, labels), fn in self._collected.items():
            out.setdefault(name, {})[labels] = float(fn())
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_prometheus_text(self) -> str:
        """Prometheus text exposition of every registered series."""
        lines: list[str] = []
        collected = self.collect()
        for name in self.names():
            kind = self._kinds[name]
            lines.append(f"# HELP {name} {self._help[name]}")
            lines.append(f"# TYPE {name} {kind}")
            if kind == "histogram":
                for (n, labels), inst in sorted(
                    self._inline.items(), key=lambda kv: kv[0]
                ):
                    if n != name or not isinstance(inst, Histogram):
                        continue
                    cumulative = inst.cumulative_counts()
                    for bound, count in zip(inst.bounds, cumulative):
                        lab = (*labels, ("le", _fmt_value(bound)))
                        lines.append(f"{name}_bucket{_fmt_labels(lab)} {count}")
                    lab = (*labels, ("le", "+Inf"))
                    lines.append(
                        f"{name}_bucket{_fmt_labels(lab)} {cumulative[-1]}"
                    )
                    lines.append(
                        f"{name}_sum{_fmt_labels(labels)} "
                        f"{_fmt_value(inst.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_fmt_labels(labels)} {inst.count}"
                    )
            else:
                for labels in sorted(collected.get(name, {})):
                    value = collected[name][labels]
                    lines.append(
                        f"{name}{_fmt_labels(labels)} {_fmt_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


#: The shared disabled registry.
NULL_REGISTRY = MetricRegistry(enabled=False)
