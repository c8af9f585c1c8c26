"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so downstream callers can catch the whole family with a
single ``except`` clause while still distinguishing configuration mistakes
(:class:`ConfigurationError`), a batch scheduler driven into an invalid
state (:class:`SchedulingError`) and misuse of the power-management API
(:class:`PowerManagementError`).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "FaultInjectionError",
    "SchedulingError",
    "AllocationError",
    "PowerManagementError",
    "PolicyError",
    "DegradedModeError",
    "TelemetryError",
    "WorkloadError",
    "MetricError",
    "ObservabilityError",
]

#: Appended to every unknown-preset error (fault, corruption and
#: provision scenarios alike) so users discover the catalogue command.
PRESET_HINT = "run `repro list-presets` for the catalogue"


class ReproError(Exception):
    """Base class of all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """A configuration object failed validation.

    Raised eagerly at construction time (all config dataclasses validate in
    ``__post_init__``) so that a bad parameter fails fast rather than
    corrupting a multi-hour simulation half-way through.
    """


class FaultInjectionError(ConfigurationError):
    """A fault-injection scenario or fault model failed validation.

    Raised eagerly when a :class:`repro.faults.FaultScenario` (or one of
    the fault models built from it) is constructed with an out-of-range
    rate or duration, so a malformed robustness experiment fails fast
    rather than silently injecting the wrong fault process.
    """


class SchedulingError(ReproError, RuntimeError):
    """The batch scheduler was driven into an invalid state.

    Examples: completing a job that was never started, or submitting the
    same job object twice.
    """


class AllocationError(SchedulingError):
    """A node allocation request could not be honoured.

    Raised when a job requests more processes than the cluster has cores,
    i.e. the request can *never* be satisfied (requests that merely have to
    wait are queued, not errored).
    """


class PowerManagementError(ReproError, RuntimeError):
    """The power manager or capping algorithm was misused.

    Examples: running a control cycle before the manager is attached to a
    cluster, or actuating a DVFS level outside the node's frequency table.
    """


class PolicyError(PowerManagementError):
    """A target-set selection policy failed or was configured incorrectly.

    Also raised by the policy registry on lookup of an unknown policy name.
    """


class DegradedModeError(PowerManagementError):
    """The degraded-mode control path was driven without any usable input.

    Raised when every sensing channel is gone at once — the system meter
    is out *and* no telemetry (not even a last-known-good cache) exists
    to fall back on — so the fail-safe ladder has no basis for a
    Formula (1) estimate.  By construction this cannot happen with a
    non-empty candidate set (the collector primes its cache at deploy
    time), so it indicates a wiring bug and must not be silently
    ignored.
    """


class TelemetryError(ReproError, RuntimeError):
    """Telemetry collection failed (unknown node, agent not sampled yet)."""


class WorkloadError(ReproError, ValueError):
    """A workload definition is malformed.

    Examples: a job with zero processes, an application profile with no
    phases, or a phase with utilisation outside ``[0, 1]``.
    """


class MetricError(ReproError, ValueError):
    """A metric was evaluated on invalid input.

    Examples: ΔP×T over an empty trace, or Performance(cap) with mismatched
    baseline/capped job sets.
    """


class ObservabilityError(ReproError, RuntimeError):
    """The observability layer was misused.

    Examples: ending a span that is not the innermost open one, closing
    a cycle with child spans still open, or registering two metrics of
    different kinds under the same name.
    """
