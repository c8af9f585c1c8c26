"""Robustness metrics: cap violations and recovery under faults.

The paper's metrics (§V.C) grade a controller with perfect sensing.
Under injected faults the question is **how long was the cap actually
violated?** — :func:`cap_violation_seconds` (wall-clock above ``P_H``)
and :func:`violation_episodes` / :func:`time_to_cap_restoration` (how
long the controller needed to drive power back under the cap once it
was breached, worst case over the run).  Under controller crashes,
:func:`controller_downtime_seconds`, :func:`failover_count` and
:func:`recovery_divergence_w` grade the failover.

All functions use the same recorded series conventions as
:mod:`repro.metrics.power`: aligned 1-D ``(t, P)`` arrays.  Episode
accounting is sample-and-hold (an interval belongs to its left sample);
ΔP×T itself remains the precise trapezoidal metric.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.types import Watts
from repro.metrics.power import _validate

__all__ = [
    "cap_violation_seconds",
    "violation_episodes",
    "time_to_cap_restoration",
    "controller_downtime_seconds",
    "failover_count",
    "recovery_divergence_w",
]


def cap_violation_seconds(
    times: np.ndarray, values: np.ndarray, threshold_w: Watts
) -> float:
    """Total wall-clock seconds spent above ``threshold_w``.

    Sample-and-hold: each inter-sample interval counts as violated when
    its left sample is above the threshold.  A single-sample trace has
    zero duration and therefore zero violation seconds.
    """
    t, v = _validate(times, values)
    if threshold_w < 0:
        raise MetricError("threshold must be non-negative")
    if len(t) < 2:
        return 0.0
    dt = np.diff(t)
    return float(dt[v[:-1] > threshold_w].sum())


def violation_episodes(
    times: np.ndarray, values: np.ndarray, threshold_w: Watts
) -> list[tuple[float, float]]:
    """Contiguous cap-violation episodes as ``(start, end)`` pairs.

    An episode starts at the first sample above the threshold and ends
    at the first subsequent sample at or below it (sample-and-hold: the
    violated interval extends to the restoring sample's time).  An
    episode still open at the end of the trace ends at the last sample.
    """
    t, v = _validate(times, values)
    if threshold_w < 0:
        raise MetricError("threshold must be non-negative")
    above = v > threshold_w
    episodes: list[tuple[float, float]] = []
    start: float | None = None
    for k in range(len(t)):
        if above[k] and start is None:
            start = float(t[k])
        elif not above[k] and start is not None:
            episodes.append((start, float(t[k])))
            start = None
    if start is not None:
        episodes.append((start, float(t[-1])))
    return episodes


def time_to_cap_restoration(
    times: np.ndarray, values: np.ndarray, threshold_w: Watts
) -> float:
    """Worst-case seconds from cap breach to restoration, 0 if never breached.

    The maximum duration over all :func:`violation_episodes` — how long
    the controller needed, in the worst case, to drive power back under
    the cap after losing it.
    """
    episodes = violation_episodes(times, values, threshold_w)
    if not episodes:
        return 0.0
    return float(max(end - start for start, end in episodes))


# ----------------------------------------------------------------------
# Controller availability (repro.ha runs)
# ----------------------------------------------------------------------
def controller_downtime_seconds(
    times: np.ndarray, controlled: np.ndarray
) -> float:
    """Wall-clock seconds the machine ran with no power manager acting.

    ``controlled`` is the HA run's per-cycle flag series (1.0 when a
    manager completed the cycle, 0.0 for crash/downtime cycles), aligned
    with ``times``.  Sample-and-hold like the other episode metrics: an
    interval belongs to its left sample.
    """
    t, c = _validate(times, controlled)
    if len(t) < 2:
        return 0.0
    dt = np.diff(t)
    return float(dt[c[:-1] <= 0.0].sum())


def failover_count(controlled: np.ndarray) -> int:
    """Takeovers completed: down→up transitions in the controlled series.

    A trace that *starts* controlled contributes nothing for its start;
    every recovery from a downtime episode counts once.  (The HA layer's
    own :class:`~repro.ha.failover.HaStats` reports the same number from
    the inside; this recomputes it from the recorded series so results
    can be audited without the controller object.)
    """
    c = np.asarray(controlled, dtype=np.float64)
    if c.ndim != 1:
        raise MetricError("controlled series must be 1-D")
    if len(c) < 2:
        return 0
    up = c > 0.0
    return int(np.count_nonzero(~up[:-1] & up[1:]))


def recovery_divergence_w(
    times: np.ndarray,
    values: np.ndarray,
    reference: np.ndarray,
    after_time: float | None = None,
) -> float:
    """Worst post-recovery deviation from an uncrashed reference, watts.

    Compares the crashed-and-recovered run's power trace against a
    reference run of the identical seeded world with no controller
    crashes, and returns ``max |P − P_ref|`` over samples at or after
    ``after_time`` (the takeover instant; ``None`` compares the whole
    trace).  Zero means the journal restored the controller onto the
    exact pre-crash trajectory; a persistent gap means recovery lost
    control state the reference still had.
    """
    t, v = _validate(times, values)
    r = np.asarray(reference, dtype=np.float64)
    if r.shape != v.shape:
        raise MetricError("reference series misaligned with power trace")
    mask = np.ones(len(t), dtype=bool) if after_time is None else t >= after_time
    if not mask.any():
        raise MetricError("no samples at or after the recovery time")
    return float(np.abs(v[mask] - r[mask]).max())
