"""Telemetry-integrity metrics: quarantine exposure and estimate error.

Companion of :mod:`repro.telemetry.integrity`.  Each cycle of a
defended run reports two integrity fields on its
:class:`~repro.core.manager.CycleReport`:

* ``quarantined_nodes`` — the count of quarantined candidates;
* ``meter_distrusted`` — whether the meter cross-check is rejecting
  the system meter.

The lowest per-node trust score (``trust_min``) is no longer recorded
per cycle; read it from
:attr:`~repro.telemetry.integrity.TelemetryValidator.trust` after each
cycle when needed.  These functions grade a defended run from series of
those fields plus the simulator's ground-truth power trace:

* :func:`quarantine_seconds` — wall-clock with at least one node in
  quarantine (how long the controller ran on the conservative
  worst-case envelope);
* :func:`quarantine_node_seconds` — the node-seconds integral (depth ×
  duration of the quarantine);
* :func:`meter_distrust_seconds` — wall-clock spent rejecting the
  system meter in favour of the model estimate;
* :func:`estimate_error_w_under_corruption` — worst deviation between
  the power the controller acted on and the true cluster power, over
  the corrupted portion of the run.  This is the number the
  never-underestimate envelope bounds: for a defended run the *signed*
  variant must stay non-negative once quarantine engages.

Series conventions match :mod:`repro.metrics.power`: aligned 1-D
arrays, sample-and-hold episode accounting (an interval belongs to its
left sample).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.types import Seconds

__all__ = [
    "quarantine_seconds",
    "quarantine_node_seconds",
    "meter_distrust_seconds",
    "estimate_error_w_under_corruption",
]


def _validate_series(
    times: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`repro.metrics.power._validate` but allows negatives.

    Trust/error series legitimately contain negative values (a signed
    estimate error below zero is exactly what the envelope guarantee
    forbids — the metric must be able to report it, not reject it).
    """
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if t.shape != v.shape or t.ndim != 1:
        raise MetricError("times/values must be equal-length 1-D arrays")
    if len(t) == 0:
        raise MetricError("empty series")
    if np.any(np.diff(t) < 0):
        raise MetricError("times must be non-decreasing")
    if not np.all(np.isfinite(t)):
        raise MetricError("non-finite timestamps in series")
    return t, v


def quarantine_seconds(times: np.ndarray, quarantined: np.ndarray) -> Seconds:
    """Wall-clock seconds with at least one node in quarantine.

    ``quarantined`` is the per-cycle quarantined-node count.
    Sample-and-hold: each inter-sample interval counts when its left
    sample has a positive count.  A single-sample trace has zero
    duration and therefore zero quarantine seconds.
    """
    t, q = _validate_series(times, quarantined)
    if np.any(q < 0):
        raise MetricError("quarantined counts must be non-negative")
    if len(t) < 2:
        return 0.0
    dt = np.diff(t)
    return float(dt[q[:-1] > 0.0].sum())


def quarantine_node_seconds(times: np.ndarray, quarantined: np.ndarray) -> float:
    """Node-seconds spent in quarantine: ``∫ count(t) dt``, sample-and-hold.

    Distinguishes a long shallow quarantine (one flaky node) from a
    short deep one (a whole rack's agents stuck): both may have equal
    :func:`quarantine_seconds` but very different node-seconds.
    """
    t, q = _validate_series(times, quarantined)
    if np.any(q < 0):
        raise MetricError("quarantined counts must be non-negative")
    if len(t) < 2:
        return 0.0
    dt = np.diff(t)
    return float((q[:-1] * dt).sum())


def meter_distrust_seconds(times: np.ndarray, distrusted: np.ndarray) -> Seconds:
    """Wall-clock seconds the meter cross-check rejected the system meter.

    ``distrusted`` is the per-cycle 0/1 ``meter_distrusted`` series.
    Sample-and-hold like the other episode metrics.
    """
    t, d = _validate_series(times, distrusted)
    if len(t) < 2:
        return 0.0
    dt = np.diff(t)
    return float(dt[d[:-1] > 0.0].sum())


def estimate_error_w_under_corruption(
    times: np.ndarray,
    acted_on_w: np.ndarray,
    true_w: np.ndarray,
    corrupted: np.ndarray | None = None,
    signed: bool = False,
) -> float:
    """Worst estimate error, watts, over the corrupted span of the run.

    ``acted_on_w`` is the power series the controller classified against
    (the recorded ``power`` series); ``true_w`` is the simulator's
    ground-truth power; ``corrupted`` optionally restricts the
    comparison to cycles where corruption was active (1.0 entries), with
    ``None`` comparing the whole run.

    With ``signed=False`` (default) returns ``max |acted_on − true|`` —
    how far off the controller's view ever was.  With ``signed=True``
    returns ``min (acted_on − true)`` — the worst *under*-estimate; a
    defended run's conservative envelope is graded by this staying
    above the meter-noise floor (never acting on less power than is
    really flowing).
    """
    t, a = _validate_series(times, acted_on_w)
    v = np.asarray(true_w, dtype=np.float64)
    if v.shape != a.shape:
        raise MetricError("true-power series misaligned with acted-on trace")
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(v)):
        raise MetricError("non-finite power in estimate-error series")
    if corrupted is None:
        mask = np.ones(len(t), dtype=bool)
    else:
        c = np.asarray(corrupted, dtype=np.float64)
        if c.shape != t.shape:
            raise MetricError("corrupted series misaligned with power trace")
        mask = c > 0.0
    if not mask.any():
        raise MetricError("no corrupted samples to grade")
    err = a[mask] - v[mask]
    if signed:
        return float(err.min())
    return float(np.abs(err).max())
