"""The metric registry: collected counters and gauges, and histograms.

Two kinds of instrument coexist:

* **collected** counters and gauges (:meth:`MetricRegistry.counter_func`
  / :meth:`MetricRegistry.gauge_func`) register a zero-argument callable
  that is evaluated only at export time.  Subsystems that already keep
  monotone counters (the actuator's command statistics, the collector's
  drop counts, the journal's record totals) are mirrored this way, so
  instrumenting them costs *nothing* per cycle and the exported value
  can never drift from the source of truth;
* **inline** :class:`Histogram` instruments are created once at wiring
  time and updated from the hot path (``histogram.observe(v)`` per
  cycle).

A disabled registry hands out a shared no-op histogram and ignores
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

__all__ = ["Histogram", "MetricRegistry"]

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


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__((1.0,))

    def observe(self, value: float) -> None:
        return None


_NULL_HISTOGRAM = _NullHistogram()

#: Kinds a family can have (fixed at first registration).
_KINDS = ("counter", "gauge", "histogram")


class MetricRegistry:
    """Named metric families with labelled series.

    A series' identity is ``(name, sorted labels)``; registering the
    same identity twice returns the existing histogram or rebinds the
    callback of a collected series (the HA layer re-registers a
    successor manager's collector after failover).  Registering one
    name under two different kinds raises.

    Args:
        enabled: A disabled registry hands out a shared no-op histogram
            and ignores callbacks.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}
        self._collected: dict[tuple[str, _LabelKey], Callable[[], float]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
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
        self._check_kind(name, "histogram", help_)
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(buckets)
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
        # Rebinding is deliberate: after a failover the successor's
        # subsystems take over the series.
        self._collected[(name, _label_key(labels))] = fn

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
        fn = self._collected.get((name, _label_key(labels)))
        if fn is None:
            raise ObservabilityError(
                f"no scalar metric series {name!r} with labels {dict(_label_key(labels))!r}"
            )
        return float(fn())

    def collect(self) -> dict[str, dict[_LabelKey, float]]:
        """Every scalar series' current value, family → labels → value."""
        out: dict[str, dict[_LabelKey, float]] = {}
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
                    self._histograms.items(), key=lambda kv: kv[0]
                ):
                    if n != name:
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
