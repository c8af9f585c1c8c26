"""Power-trajectory metrics: P_max and the paper's ΔP×T (§V.C).

``ΔP×T`` — the *accumulative effect of overspending* — is the paper's
novel metric::

    ΔP×T = ∫_{P>P_th} (P(t) − P_th) dt  /  ∫ P(t) dt

the dark-grey over-threshold area of Figure 4 over the total grey area:
the fraction of all generated heat attributable to running above the
provision threshold.  It jointly penalises *how far* and *for how long*
the budget was overspent, which neither P_max nor time-over-threshold
capture alone.

Integration uses the trapezoidal rule over the recorded ``(t, P)``
series.  The clamped excess ``max(P − P_th, 0)`` is computed *before*
integrating each trapezoid, with the threshold-crossing point
interpolated so a series that dips briefly below threshold between two
samples is not over-charged.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.types import Watts

__all__ = [
    "peak_power",
    "average_power",
    "energy_joules",
    "accumulated_overspend",
    "overspend_energy_joules",
]


def _validate(times: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if t.shape != v.shape or t.ndim != 1:
        raise MetricError("times/values must be equal-length 1-D arrays")
    if len(t) == 0:
        raise MetricError("empty power trace")
    if np.any(np.diff(t) < 0):
        raise MetricError("times must be non-decreasing")
    if np.any(v < 0):
        raise MetricError("negative power in trace")
    return t, v


def peak_power(times: np.ndarray, values: np.ndarray) -> float:
    """``P_max``: the maximum of the trace, watts."""
    _, v = _validate(times, values)
    return float(v.max())


def average_power(times: np.ndarray, values: np.ndarray) -> float:
    """Time-weighted mean power, watts (plain mean for a single point)."""
    t, v = _validate(times, values)
    if len(t) == 1 or t[-1] == t[0]:
        return float(v.mean())
    return energy_joules(t, v) / float(t[-1] - t[0])


def energy_joules(times: np.ndarray, values: np.ndarray) -> float:
    """``∫ P dt`` by the trapezoidal rule, joules."""
    t, v = _validate(times, values)
    if len(t) < 2:
        raise MetricError("need at least two samples to integrate")
    return float(np.trapezoid(v, t))


def overspend_energy_joules(
    times: np.ndarray, values: np.ndarray, threshold_w: Watts
) -> float:
    """``∫ max(P − P_th, 0) dt`` with crossing interpolation, joules.

    Each sampling interval is integrated exactly for the piecewise-linear
    interpolant of the trace: if the segment crosses the threshold, the
    crossing time splits it and only the above-threshold part counts.
    """
    t, v = _validate(times, values)
    if threshold_w < 0:
        raise MetricError("threshold must be non-negative")
    if len(t) < 2:
        raise MetricError("need at least two samples to integrate")
    excess = v - threshold_w
    e0, e1 = excess[:-1], excess[1:]
    dt = np.diff(t)

    both_above = (e0 >= 0) & (e1 >= 0)
    both_below = (e0 <= 0) & (e1 <= 0)
    crossing = ~(both_above | both_below)

    area = np.zeros_like(dt)
    area[both_above] = 0.5 * (e0[both_above] + e1[both_above]) * dt[both_above]
    # Crossing segments: the above-threshold part is a triangle.
    if np.any(crossing):
        ec0 = e0[crossing]
        ec1 = e1[crossing]
        dtc = dt[crossing]
        # Fraction of the segment spent above threshold and its peak excess.
        upward = ec1 > 0  # rose through the threshold
        peak = np.where(upward, ec1, ec0)
        frac = peak / (np.abs(ec0) + np.abs(ec1))
        area[crossing] = 0.5 * peak * frac * dtc
    return float(area.sum())


def accumulated_overspend(
    times: np.ndarray, values: np.ndarray, threshold_w: Watts
) -> float:
    """The paper's ΔP×T metric (dimensionless, in [0, 1))."""
    total = energy_joules(times, values)
    if total <= 0:
        raise MetricError("total energy must be positive for ΔP×T")
    return overspend_energy_joules(times, values, threshold_w) / total
