"""Cycle tracing: span trees with deterministic sim-time timestamps.

After each control cycle the :class:`~repro.core.manager.PowerManager`
projects the cycle's finished :class:`~repro.core.manager.CycleReport`
into one root ``cycle`` span with a child span per phase (``collect`` →
``estimate`` → ``classify`` → ``select_targets`` → ``actuate`` →
``journal``).  Spans carry *simulated* timestamps only — never the host
wall clock — plus explicit attributes (power, state, thresholds,
target-set size, fencing epoch, degraded flags), so two runs from the
same seed emit byte-identical traces.

Within one cycle every span shares the cycle's sim time; ordering is
carried by a monotone per-tracer sequence number instead of sub-cycle
timestamps, which keeps the trace deterministic and free of wall-clock
reads (reprolint RL102).

A disabled tracer is a shared no-op: :meth:`CycleTracer.begin_cycle`
returns the null span, and the manager skips building the tree behind
one ``enabled`` check per cycle.
"""

from __future__ import annotations

from typing import Callable, Iterator, Union

from repro.errors import ObservabilityError
from repro.types import Seconds

__all__ = ["AttrValue", "Span", "CycleTracer", "NULL_SPAN"]

#: Values a span attribute may carry (JSON scalars only, so the trace
#: serializes canonically).
AttrValue = Union[bool, int, float, str, None]


class Span:
    """One node of a cycle's span tree.

    Attributes are insertion-ordered (Python dict semantics), which the
    JSONL exporters rely on for byte-stable output.
    """

    __slots__ = ("name", "time", "seq", "attrs", "_children", "open")

    def __init__(self, name: str, time: Seconds, seq: int) -> None:
        self.name = name
        self.time = time
        self.seq = seq
        self.attrs: dict[str, AttrValue] = {}
        # Lazily created: most spans are leaves, and the tracer runs
        # once per control cycle — every allocation counts.
        self._children: list[Span] | None = None
        self.open = True

    @property
    def children(self) -> list["Span"]:
        """Child spans in the order they were added (empty for a leaf)."""
        return self._children if self._children is not None else []

    def to_dict(self) -> dict[str, object]:
        """The span tree as JSON-ready nested dicts (deterministic order)."""
        record: dict[str, object] = {
            "name": self.name,
            "t": self.time,
            "seq": self.seq,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self._children:
            record["children"] = [c.to_dict() for c in self._children]
        return record

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first pre-order."""
        yield self
        if self._children:
            for child in self._children:
                yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name!r} t={self.time} seq={self.seq} "
            f"children={len(self.children)}>"
        )


#: The span a disabled tracer hands out everywhere (never opened).
NULL_SPAN = Span("", 0.0, -1)
NULL_SPAN.open = False


class CycleTracer:
    """Builds one span tree per control cycle and feeds it to sinks.

    Completed cycles go to the sinks attached with :meth:`add_sink` (the
    flight recorder's ring append, the in-memory whole-run trace, ...).

    Args:
        enabled: A disabled tracer performs no work and hands out the
            shared null span.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._sinks: list[Callable[[Span], None]] = []
        self._root: Span | None = None
        self._seq = 0
        self._cycles_traced = 0
        self._free: list[Span] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cycles_traced(self) -> int:
        """Completed cycle span trees emitted so far."""
        return self._cycles_traced

    def add_sink(self, sink: Callable[[Span], None]) -> None:
        """Attach another consumer of completed cycle spans."""
        self._sinks.append(sink)

    def recycle(self, root: Span) -> None:
        """Return a completed cycle tree to the allocation pool.

        Steady-state tracing then allocates (almost) nothing per cycle:
        :meth:`begin_cycle` and :meth:`leaf` reuse the pooled spans —
        and their attrs dicts and children lists — instead of building
        fresh ones, which also keeps the garbage collector quiet (no
        per-cycle promotion churn from trees retained by the flight
        ring).  The caller must guarantee nothing still references any
        span in the tree; the facade only recycles trees evicted from
        the flight-recorder ring when no whole-run trace is retained.
        """
        if not self.enabled:
            return
        pending = [root]
        free = self._free
        while pending:
            span = pending.pop()
            span.attrs.clear()
            kids = span._children
            if kids:
                pending.extend(kids)
                kids.clear()
            free.append(span)

    def _new_span(self, name: str, time: Seconds) -> Span:
        """A pooled (or fresh) open span with the next sequence number."""
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            span = free.pop()
            span.name = name
            span.time = time
            span.seq = seq
            span.open = True
            return span
        return Span(name, time, seq)

    # ------------------------------------------------------------------
    # Building the tree
    # ------------------------------------------------------------------
    def begin_cycle(self, now: Seconds) -> Span:
        """Open the root span of one control cycle.

        Raises:
            ObservabilityError: if the previous cycle was never ended.
        """
        if not self.enabled:
            return NULL_SPAN
        if self._root is not None:
            raise ObservabilityError(
                "begin_cycle with a span still open; end_cycle first"
            )
        root = self._root = self._new_span("cycle", now)
        return root

    def leaf(self, name: str, attrs: dict[str, AttrValue]) -> None:
        """Add a closed child span carrying ``attrs`` to the open cycle.

        Children keep the order they are added in; ``attrs`` is kept,
        not copied.  The manager projects each stage of a finished cycle
        this way, in stage order.

        Raises:
            ObservabilityError: if no cycle is open.
        """
        root = self._root
        if root is None:
            if not self.enabled:
                return
            raise ObservabilityError(
                f"span {name!r} opened outside a cycle; begin_cycle first"
            )
        leaf = self._new_span(name, root.time)
        leaf.open = False
        leaf.attrs = attrs
        if root._children is None:
            root._children = [leaf]
        else:
            root._children.append(leaf)

    def end_cycle(self) -> Span | None:
        """Close the root span and deliver the tree to every sink.

        Returns the completed root span (``None`` when disabled).

        Raises:
            ObservabilityError: if no cycle was begun.
        """
        if not self.enabled:
            return None
        root = self._root
        if root is None:
            raise ObservabilityError("end_cycle without begin_cycle")
        self._root = None
        root.open = False
        self._cycles_traced += 1
        for sink in self._sinks:
            sink(root)
        return root


#: The shared disabled tracer (no allocation per run).
NULL_TRACER = CycleTracer(enabled=False)
