"""Power-delivery metrics: capacity shortfall and branch overload.

Companion of :mod:`repro.provision`.  Each cycle of a
provision-attached run reports the surviving delivery capacity on its
:class:`~repro.core.manager.CycleReport` (``capacity_w``: design
capacity minus lost feeds, PDU derates and operator cap orders).  The
branch overload (``branch_over_w``: the watts by which the worst branch
circuit exceeds its surviving rating, 0.0 while every breaker is
comfortable) is no longer recorded per cycle; read it from
:attr:`~repro.provision.runtime.ProvisionRuntime.last_branch_over_w`
after each cycle when needed.

These functions grade a run from such series plus the power trace:

* :func:`capacity_shortfall_w_seconds` — ``∫ max(0, P − C) dt``, the
  over-capacity power-time integral.  This is the delivery-side analogue
  of the paper's ``ΔP×T`` with the *surviving* capacity as the
  threshold — the quantity upstream protection integrates before it
  opens;
* :func:`time_over_capacity` — wall-clock seconds spent above the
  surviving capacity;
* :func:`capacity_recovery_seconds` — time from the first over-capacity
  sample until draw first falls back under the recovery band (how long
  renegotiation plus the ladder took to chase a shrunken budget);
* :func:`branch_overload_w_seconds` — the ``∫ branch_over dt``
  integral (watt-seconds of local breaker abuse).

Series conventions match :mod:`repro.metrics.power`: aligned 1-D
arrays, sample-and-hold episode accounting (an interval belongs to its
left sample).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.types import Seconds

__all__ = [
    "capacity_shortfall_w_seconds",
    "time_over_capacity",
    "capacity_recovery_seconds",
    "branch_overload_w_seconds",
]


def _validate_series(
    times: np.ndarray, values: np.ndarray, name: str
) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if t.shape != v.shape or t.ndim != 1:
        raise MetricError(f"times/{name} must be equal-length 1-D arrays")
    if len(t) == 0:
        raise MetricError(f"empty {name} series")
    if np.any(np.diff(t) < 0):
        raise MetricError("times must be non-decreasing")
    if not np.all(np.isfinite(t)):
        raise MetricError("non-finite timestamps in series")
    if not np.all(np.isfinite(v)):
        raise MetricError(f"non-finite values in {name} series")
    if np.any(v < 0.0):
        raise MetricError(f"{name} series must be non-negative")
    return t, v


def _aligned_capacity(
    t: np.ndarray, capacity_w: np.ndarray
) -> np.ndarray:
    c = np.asarray(capacity_w, dtype=np.float64)
    if c.shape != t.shape:
        raise MetricError("capacity series misaligned with power trace")
    if not np.all(np.isfinite(c)):
        raise MetricError("non-finite values in capacity series")
    return c


def capacity_shortfall_w_seconds(
    times: np.ndarray, power_w: np.ndarray, capacity_w: np.ndarray
) -> float:
    """``∫ max(0, P(t) − C(t)) dt`` in watt-seconds, sample-and-hold.

    Zero for a run that always fit inside the surviving delivery
    capacity; for a feed-loss run it is the energy drawn through a
    delivery path rated below it — what the benchmark contrasts between
    the defended and undefended arms.
    """
    t, p = _validate_series(times, power_w, "power")
    c = _aligned_capacity(t, capacity_w)
    if len(t) < 2:
        return 0.0
    dt = np.diff(t)
    over = np.maximum(p[:-1] - c[:-1], 0.0)
    return float((over * dt).sum())


def time_over_capacity(
    times: np.ndarray, power_w: np.ndarray, capacity_w: np.ndarray
) -> Seconds:
    """Wall-clock seconds with draw above the surviving capacity."""
    t, p = _validate_series(times, power_w, "power")
    c = _aligned_capacity(t, capacity_w)
    if len(t) < 2:
        return 0.0
    dt = np.diff(t)
    return float(dt[p[:-1] > c[:-1]].sum())


def capacity_recovery_seconds(
    times: np.ndarray,
    power_w: np.ndarray,
    capacity_w: np.ndarray,
    recover_fraction: float = 0.95,
) -> Seconds | None:
    """Seconds from first over-capacity sample to first recovered one.

    "Recovered" means draw at or below ``recover_fraction`` of the
    then-current capacity, matching the emergency ladder's de-escalation
    band.  Returns ``None`` when the run never exceeded capacity, and
    ``inf`` when it exceeded capacity but never recovered — distinct
    outcomes a gate must treat differently.
    """
    if not 0.0 < recover_fraction <= 1.0:
        raise MetricError("recover_fraction must lie in (0, 1]")
    t, p = _validate_series(times, power_w, "power")
    c = _aligned_capacity(t, capacity_w)
    over = p > c
    if not over.any():
        return None
    start = int(np.argmax(over))
    recovered = np.flatnonzero(p[start:] <= recover_fraction * c[start:])
    if len(recovered) == 0:
        return float("inf")
    return float(t[start + recovered[0]] - t[start])


def branch_overload_w_seconds(
    times: np.ndarray, branch_over_w: np.ndarray
) -> float:
    """``∫ branch_over(t) dt``: watt-seconds of local breaker abuse.

    ``branch_over_w`` is a per-cycle series of branch excesses;
    the integral distinguishes a brief deep overload from sustained
    simmering just above a rating — the latter is what actually trips
    thermal breakers.
    """
    t, b = _validate_series(times, branch_over_w, "branch_over")
    if len(t) < 2:
        return 0.0
    dt = np.diff(t)
    return float((b[:-1] * dt).sum())
